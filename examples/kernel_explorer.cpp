// Interactive kernel explorer: build any suite kernel from the command
// line, run it on any simulated GPU, and inspect everything the library
// exposes — IL, ISA disassembly, SKA statics, dynamic counters, the
// hardware-counter profile, bottleneck, and advice.
//
// Usage:
//   ./example_kernel_explorer [options]
//     --gpu NAME        RV670|RV770|RV870 or card number (default 4870)
//     --inputs N        number of input streams        (default 16)
//     --outputs N       number of output streams       (default 1)
//     --ratio R         SKA-normalised ALU:Fetch ratio (default 1.0)
//     --type T          float | float4                 (default float4)
//     --mode M          pixel | compute                (default pixel)
//     --block WxH       compute block shape            (default 64x1)
//     --domain WxH      launch domain                  (default 1024x1024)
//     --read P          texture | global               (default texture)
//     --write P         stream | global                (default stream)
//     --il-file PATH    load the kernel from IL text instead of
//                       generating it (see il::Parse)
//     --trace           profile the launch and print the profile (with
//                       AMDMB_TRACE_DIR set, also write its Chrome trace)
//     --show-il / --show-isa   print the program text
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "amdmb.hpp"
#include "report/sink.hpp"

namespace {

using namespace amdmb;

[[noreturn]] void Usage(const std::string& msg) {
  std::cerr << "kernel_explorer: " << msg
            << "\nSee the header comment for options.\n";
  std::exit(2);
}

std::pair<unsigned, unsigned> ParsePair(const std::string& s) {
  const auto x = s.find('x');
  if (x == std::string::npos) Usage("expected WxH");
  return {static_cast<unsigned>(std::stoul(s.substr(0, x))),
          static_cast<unsigned>(std::stoul(s.substr(x + 1)))};
}

}  // namespace

int main(int argc, char** argv) {
  std::string gpu = "4870";
  suite::GenericSpec spec;
  spec.inputs = 16;
  spec.outputs = 1;
  spec.type = DataType::kFloat4;
  spec.name = "explorer";
  double ratio = 1.0;
  sim::LaunchConfig launch;
  bool show_il = false;
  bool show_isa = false;
  std::string il_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--gpu") {
      gpu = next();
    } else if (arg == "--inputs") {
      spec.inputs = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--outputs") {
      spec.outputs = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--ratio") {
      ratio = std::stod(next());
    } else if (arg == "--type") {
      const std::string v = next();
      spec.type = v == "float" ? DataType::kFloat : DataType::kFloat4;
    } else if (arg == "--mode") {
      launch.mode =
          next() == "compute" ? ShaderMode::kCompute : ShaderMode::kPixel;
    } else if (arg == "--block") {
      const auto [x, y] = ParsePair(next());
      launch.block = BlockShape{x, y};
    } else if (arg == "--domain") {
      const auto [w, h] = ParsePair(next());
      launch.domain = Domain{w, h};
    } else if (arg == "--read") {
      spec.read_path =
          next() == "global" ? ReadPath::kGlobal : ReadPath::kTexture;
    } else if (arg == "--write") {
      spec.write_path =
          next() == "global" ? WritePath::kGlobal : WritePath::kStream;
    } else if (arg == "--il-file") {
      il_file = next();
    } else if (arg == "--trace") {
      launch.profile = true;
    } else if (arg == "--show-il") {
      show_il = true;
    } else if (arg == "--show-isa") {
      show_isa = true;
    } else {
      Usage("unknown option " + arg);
    }
  }
  if (launch.mode == ShaderMode::kCompute) {
    spec.write_path = WritePath::kGlobal;  // No color buffers in compute.
  }
  spec.alu_ops = suite::AluOpsForRatio(ratio, spec.inputs);

  try {
    report::EnsureOutputDirectories(/*figure_files=*/false);
    const cal::Device device = cal::Device::Open(gpu);
    cal::Context ctx(device);
    il::Kernel kernel;
    if (il_file.empty()) {
      kernel = suite::GenerateGeneric(spec);
    } else {
      std::ifstream in(il_file);
      if (!in.good()) Usage("cannot open " + il_file);
      std::ostringstream text;
      text << in.rdbuf();
      kernel = il::Parse(text.str());
    }
    const cal::Module module = ctx.Compile(kernel);

    if (show_il) std::cout << il::Print(kernel) << "\n";
    if (show_isa) std::cout << module.Disassemble() << "\n";
    std::cout << module.Ska().Render() << "\n";

    const cal::RunEvent ev = ctx.Run(module, launch);
    std::cout << ev.stats.Render() << "\n";
    if (ev.profile != nullptr) std::cout << ev.profile->Render() << "\n";

    suite::Measurement m;
    m.seconds = ev.seconds;
    m.stats = ev.stats;
    m.ska = module.Ska();
    std::cout << suite::Advise(m, launch.mode, launch.block).Render();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
