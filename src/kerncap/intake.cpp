#include "kerncap/intake.hpp"

#include <algorithm>
#include <cstdint>

#include "common/status.hpp"
#include "il/parser.hpp"
#include "il/verifier.hpp"

namespace amdmb::kerncap {

std::string_view ToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kPayloadTooLarge: return "payload_too_large";
    case RejectReason::kTooManyLines: return "too_many_lines";
    case RejectReason::kTooManyInstructions:
      return "too_many_instructions";
    case RejectReason::kResourceLimit: return "resource_limit";
    case RejectReason::kParseError: return "parse_error";
    case RejectReason::kVerifyError: return "verify_error";
    case RejectReason::kCompileError: return "compile_error";
  }
  throw SimError("ToString(RejectReason): unknown value");
}

std::string ContentHash(std::string_view il) {
  // FNV-1a 64-bit with a non-standard offset basis (the standard
  // 14695981039346656037 minus its last digit; see intake.hpp). It is
  // wire protocol (routing key + figure identity), not security, so the
  // basis stays: changing it would rename every slug.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : il) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

namespace {

AnalyzeResult Reject(std::string hash, RejectReason reason,
                     std::string detail) {
  AnalyzeResult result;
  result.hash = std::move(hash);
  result.rejection = Rejection{reason, std::move(detail)};
  return result;
}

}  // namespace

AnalyzeResult Analyze(std::string_view il, const IntakeLimits& limits) {
  std::string hash = ContentHash(il);
  // Size caps first: nothing below touches text beyond the caps.
  if (il.size() > limits.max_bytes) {
    return Reject(std::move(hash), RejectReason::kPayloadTooLarge,
                  "kernel text is " + std::to_string(il.size()) +
                      " bytes; the limit is " +
                      std::to_string(limits.max_bytes));
  }
  const std::size_t lines =
      1 + static_cast<std::size_t>(std::count(il.begin(), il.end(), '\n'));
  if (lines > limits.max_lines) {
    return Reject(std::move(hash), RejectReason::kTooManyLines,
                  "kernel text has " + std::to_string(lines) +
                      " lines; the limit is " +
                      std::to_string(limits.max_lines));
  }

  il::Kernel kernel;
  try {
    kernel = il::Parse(il);
  } catch (const ConfigError& e) {
    return Reject(std::move(hash), RejectReason::kParseError, e.what());
  }

  if (kernel.code.size() > limits.max_instructions) {
    return Reject(std::move(hash), RejectReason::kTooManyInstructions,
                  "kernel has " + std::to_string(kernel.code.size()) +
                      " instructions; the limit is " +
                      std::to_string(limits.max_instructions));
  }
  const auto resource = [&](const char* what, std::size_t value,
                            std::size_t cap) {
    return Reject(hash, RejectReason::kResourceLimit,
                  std::string(what) + " " + std::to_string(value) +
                      " exceeds the limit of " + std::to_string(cap));
  };
  if (kernel.sig.inputs > limits.max_inputs) {
    return resource("input count", kernel.sig.inputs, limits.max_inputs);
  }
  if (kernel.sig.outputs > limits.max_outputs) {
    return resource("output count", kernel.sig.outputs, limits.max_outputs);
  }
  if (kernel.sig.constants > limits.max_constants) {
    return resource("constant count", kernel.sig.constants,
                    limits.max_constants);
  }
  if (kernel.name.size() > limits.max_name_bytes) {
    return resource("kernel name of", kernel.name.size(),
                    limits.max_name_bytes);
  }

  const il::VerifyResult verdict = il::Verify(kernel);
  if (!verdict.ok()) {
    return Reject(std::move(hash), RejectReason::kVerifyError,
                  verdict.Message());
  }

  AnalyzeResult result;
  result.hash = hash;
  try {
    Prepared prepared;
    prepared.statics = AnalyzeAllArchs(kernel);
    prepared.kernel = std::move(kernel);
    prepared.hash = std::move(hash);
    result.prepared = std::move(prepared);
  } catch (const ConfigError& e) {
    return Reject(std::move(result.hash), RejectReason::kCompileError,
                  e.what());
  }
  return result;
}

}  // namespace amdmb::kerncap
