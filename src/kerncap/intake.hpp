// The kerncap intake boundary: the one place untrusted IL text enters
// the system.
//
// Everything a client submits through the service's "characterize" op
// (or the amdmb_kerncap CLI) passes through Analyze(), which enforces
// hard size / resource caps *before* parsing, then runs the
// il::Parse -> il::Verify -> compiler::Compile pipeline and converts
// every failure into a typed Rejection with a stable reason code —
// Analyze never throws for malformed input. The codes are wire protocol
// (the "code" field of a rejected:invalid_kernel event) and must stay
// stable:
//
//   payload_too_large     IL text exceeds IntakeLimits::max_bytes.
//   too_many_lines        line count exceeds max_lines.
//   too_many_instructions parsed instruction count exceeds the cap.
//   resource_limit        inputs/outputs/constants/name beyond caps.
//   parse_error           the IL grammar rejected the text.
//   verify_error          parsed, but IL validity rules failed.
//   compile_error         verified, but ISA lowering rejected it.
//
// The fuzz harness (tools/fuzz_il_parser) drives exactly this entry
// point: any exception escaping Analyze is a bug by definition.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "il/il.hpp"
#include "kerncap/static_analysis.hpp"

namespace amdmb::kerncap {

/// Why a submitted kernel was rejected (stable wire codes above).
enum class RejectReason {
  kPayloadTooLarge,
  kTooManyLines,
  kTooManyInstructions,
  kResourceLimit,
  kParseError,
  kVerifyError,
  kCompileError,
};

std::string_view ToString(RejectReason reason);

/// One typed rejection verdict: the stable code plus a human detail.
struct Rejection {
  RejectReason reason = RejectReason::kParseError;
  std::string detail;
};

/// Hard caps enforced before (bytes/lines) and after (instructions,
/// resources) parsing. Defaults bound analysis cost far below the
/// service's 8 MiB request-line limit.
struct IntakeLimits {
  std::size_t max_bytes = 1u << 20;  ///< 1 MiB of IL text.
  std::size_t max_lines = 4096;
  std::size_t max_instructions = 2048;
  unsigned max_inputs = 128;
  unsigned max_outputs = 16;
  unsigned max_constants = 256;
  std::size_t max_name_bytes = 64;
};

/// Content identity of submitted IL text, rendered as 16 hex digits:
/// FNV-1a 64-bit over the raw bytes, but with offset basis
/// 1469598103934665603 (0x14650fb0739d0383), the standard
/// 14695981039346656037 with its last digit dropped. The value is kept
/// as is: the fleet routes characterize requests by this hash, and it
/// names the figure record (slug and figure id).
std::string ContentHash(std::string_view il);

/// A kernel that survived intake: parsed, verified, compiled for every
/// architecture, with its static analysis attached.
struct Prepared {
  il::Kernel kernel;
  std::string hash;  ///< ContentHash of the submitted text.
  std::vector<ArchStatic> statics;  ///< AllArchs() order.
};

/// Outcome of one intake: the content hash always, then exactly one of
/// `prepared` (accepted) or `rejection` (typed verdict).
struct AnalyzeResult {
  std::string hash;
  std::optional<Prepared> prepared;
  std::optional<Rejection> rejection;

  bool ok() const { return !rejection.has_value(); }
};

/// Runs the full intake pipeline on untrusted IL text. Never throws for
/// malformed input — every rejection class comes back typed.
AnalyzeResult Analyze(std::string_view il, const IntakeLimits& limits = {});

}  // namespace amdmb::kerncap
