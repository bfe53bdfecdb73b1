// Fault-injection tests: spec parsing, schedule determinism, the CAL
// error mapping at each runtime boundary, and the watchdog cycle budget
// that turns a hung simulation into kCalTimeout.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cal/cal.hpp"
#include "cal/cal_result.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"
#include "report/record.hpp"
#include "sim/gpu.hpp"
#include "suite/figures.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"

namespace amdmb {
namespace {

using fault::FaultInjector;
using fault::FaultSite;
using fault::FaultSpec;
using fault::ScopedFaultInjector;

// ---- FaultSpec parsing -------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  const FaultSpec spec =
      FaultSpec::Parse("compile:0.01,launch:0.02,hang:0.001,seed=42");
  EXPECT_DOUBLE_EQ(spec.compile, 0.01);
  EXPECT_DOUBLE_EQ(spec.launch, 0.02);
  EXPECT_DOUBLE_EQ(spec.hang, 0.001);
  EXPECT_DOUBLE_EQ(spec.readback, 0.0);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_TRUE(spec.AnyEnabled());
}

TEST(FaultSpecTest, AcceptsEqualsSeparatorAndReadback) {
  const FaultSpec spec = FaultSpec::Parse("readback=0.5");
  EXPECT_DOUBLE_EQ(spec.readback, 0.5);
  EXPECT_EQ(spec.seed, 0u);
}

TEST(FaultSpecTest, ParsesFleetWorkerSites) {
  const FaultSpec spec =
      FaultSpec::Parse("worker_crash:0.02,worker_hang=0.01,seed=7");
  EXPECT_DOUBLE_EQ(spec.worker_crash, 0.02);
  EXPECT_DOUBLE_EQ(spec.worker_hang, 0.01);
  EXPECT_TRUE(spec.AnyEnabled());
  EXPECT_DOUBLE_EQ(spec.Probability(FaultSite::kWorkerCrash), 0.02);
  EXPECT_DOUBLE_EQ(spec.Probability(FaultSite::kWorkerHang), 0.01);
  EXPECT_EQ(ToString(FaultSite::kWorkerCrash), "worker_crash");
  EXPECT_EQ(ToString(FaultSite::kWorkerHang), "worker_hang");
  // The heartbeat schedule is per-site: the same key draws independent
  // decisions for crash and hang, and stays deterministic per seed.
  FaultSpec both;
  both.worker_crash = 0.5;
  both.worker_hang = 0.5;
  both.seed = 11;
  const FaultInjector a(both);
  const FaultInjector b(both);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "w1#" + std::to_string(i);
    EXPECT_EQ(a.ShouldFail(FaultSite::kWorkerCrash, key),
              b.ShouldFail(FaultSite::kWorkerCrash, key));
    EXPECT_EQ(a.ShouldFail(FaultSite::kWorkerHang, key),
              b.ShouldFail(FaultSite::kWorkerHang, key));
  }
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::Parse("warp:0.1"), ConfigError);
  EXPECT_THROW(FaultSpec::Parse("launch:1.5"), ConfigError);
  EXPECT_THROW(FaultSpec::Parse("launch:-0.1"), ConfigError);
  EXPECT_THROW(FaultSpec::Parse("launch"), ConfigError);
  EXPECT_THROW(FaultSpec::Parse("launch:abc"), ConfigError);
  EXPECT_THROW(FaultSpec::Parse(","), ConfigError);
}

// ---- Schedule determinism ----------------------------------------------

std::vector<bool> Schedule(const FaultInjector& injector, FaultSite site,
                           std::size_t n) {
  std::vector<bool> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        injector.ShouldFail(site, "point_" + std::to_string(i) + "#1"));
  }
  return out;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultSpec spec;
  spec.launch = 0.3;
  spec.seed = 42;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  EXPECT_EQ(Schedule(a, FaultSite::kLaunch, 1000),
            Schedule(b, FaultSite::kLaunch, 1000));
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  FaultSpec a_spec;
  a_spec.launch = 0.3;
  a_spec.seed = 42;
  FaultSpec b_spec = a_spec;
  b_spec.seed = 43;
  EXPECT_NE(Schedule(FaultInjector(a_spec), FaultSite::kLaunch, 1000),
            Schedule(FaultInjector(b_spec), FaultSite::kLaunch, 1000));
}

TEST(FaultInjectorTest, RetriesRollFreshDecisions) {
  FaultSpec spec;
  spec.launch = 0.5;
  spec.seed = 7;
  const FaultInjector injector(spec);
  // The attempt number is part of the key, so across many points the
  // attempt-2 decision must disagree with attempt 1 at least once.
  bool differs = false;
  for (int i = 0; i < 64 && !differs; ++i) {
    std::string point = "p";  // Built up to dodge a GCC 12 -Wrestrict
    point += std::to_string(i);  // false positive on chained operator+.
    differs = injector.ShouldFail(FaultSite::kLaunch, point + "#1") !=
              injector.ShouldFail(FaultSite::kLaunch, point + "#2");
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, ZeroNeverFiresOneAlwaysFires) {
  FaultSpec spec;
  spec.launch = 1.0;
  spec.compile = 0.0;
  const FaultInjector injector(spec);
  for (std::size_t i = 0; i < 100; ++i) {
    std::string key = "k";  // See RetriesRollFreshDecisions: -Wrestrict.
    key += std::to_string(i);
    key += "#1";
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kLaunch, key));
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kCompile, key));
  }
}

TEST(FaultInjectorTest, FiresAtRoughlyTheConfiguredRate) {
  FaultSpec spec;
  spec.launch = 0.25;
  spec.seed = 1;
  const FaultInjector injector(spec);
  const std::vector<bool> schedule =
      Schedule(injector, FaultSite::kLaunch, 4000);
  std::size_t fired = 0;
  for (const bool f : schedule) fired += f ? 1 : 0;
  EXPECT_GT(fired, 4000u * 25 / 100 / 2);
  EXPECT_LT(fired, 4000u * 25 / 100 * 2);
}

// ---- Scoped install ----------------------------------------------------

TEST(ScopedFaultInjectorTest, InstallsAndRestores) {
  const fault::FaultInjector* before = fault::GlobalInjector();
  {
    ScopedFaultInjector scoped("launch:1,seed=3");
    ASSERT_NE(fault::GlobalInjector(), nullptr);
    EXPECT_DOUBLE_EQ(fault::GlobalInjector()->Spec().launch, 1.0);
    {
      ScopedFaultInjector inner("compile:1");
      EXPECT_DOUBLE_EQ(fault::GlobalInjector()->Spec().compile, 1.0);
    }
    EXPECT_DOUBLE_EQ(fault::GlobalInjector()->Spec().launch, 1.0);
  }
  EXPECT_EQ(fault::GlobalInjector(), before);
}

// ---- CAL error mapping -------------------------------------------------

TEST(CalErrorTest, CarriesCodeStagePointAttempt) {
  ScopedFaultInjector scoped("launch:1");
  try {
    cal::CheckInjectedFault(FaultSite::kLaunch, "alufetch_r0.25", 2);
    FAIL() << "expected CalError";
  } catch (const cal::CalError& e) {
    EXPECT_EQ(e.Code(), cal::CalResult::kCalLaunchFailed);
    EXPECT_EQ(e.Stage(), "launch");
    EXPECT_EQ(e.Point(), "alufetch_r0.25");
    EXPECT_EQ(e.Attempt(), 2u);
    EXPECT_NE(std::string(e.what()).find("alufetch_r0.25"),
              std::string::npos);
  }
}

TEST(CalErrorTest, HangMapsToTimeout) {
  ScopedFaultInjector scoped("hang:1");
  try {
    cal::CheckInjectedFault(FaultSite::kHang, "p", 1);
    FAIL() << "expected CalError";
  } catch (const cal::CalError& e) {
    EXPECT_EQ(e.Code(), cal::CalResult::kCalTimeout);
  }
}

TEST(CalErrorTest, DefaultPointIsTheKernelNameOnBothLaunchPaths) {
  // With no point named, Context::Run and Runner::Measure key their
  // launch faults on the kernel's name, so one seeded schedule fails the
  // same kernels on both paths.
  ScopedFaultInjector scoped("launch:0.5,seed=1");
  cal::Context ctx(cal::Device::Open("4870"));
  const suite::Runner runner(ctx.Arch());
  sim::LaunchConfig config;
  config.domain = Domain{64, 64};
  config.repetitions = 1;
  std::vector<std::string> cal_failed;
  std::vector<std::string> runner_failed;
  for (int i = 0; i < 40; ++i) {
    suite::GenericSpec spec;
    spec.inputs = 4;
    spec.alu_ops = 32;
    spec.name = "k";  // See RetriesRollFreshDecisions: -Wrestrict.
    spec.name += std::to_string(i);
    const il::Kernel kernel = suite::GenerateGeneric(spec);
    try {
      ctx.Run(ctx.Compile(kernel), config);
    } catch (const cal::CalError& e) {
      EXPECT_EQ(e.Point(), spec.name);
      cal_failed.push_back(spec.name);
    }
    try {
      runner.Measure(kernel, config);
    } catch (const cal::CalError& e) {
      EXPECT_EQ(e.Point(), spec.name);
      runner_failed.push_back(spec.name);
    }
  }
  EXPECT_EQ(cal_failed, runner_failed);
  EXPECT_GT(cal_failed.size(), 0u);
  EXPECT_LT(cal_failed.size(), 40u);
}

TEST(CalErrorTest, NoInjectorNoThrow) {
  // Outside any scoped install (and with AMDMB_FAULTS unset in the test
  // environment) the check must be a no-op.
  EXPECT_NO_THROW(cal::CheckInjectedFault(FaultSite::kLaunch, "p", 1));
}

TEST(CalErrorTest, IsTransient) {
  static_assert(std::is_base_of_v<TransientError, cal::CalError>);
  static_assert(std::is_base_of_v<TransientError, sim::WatchdogTimeout>);
}

// ---- Watchdog ----------------------------------------------------------

TEST(WatchdogTest, TinyBudgetTripsOnGpuExecute) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  const cal::Device device = cal::Device::Open("4870");
  cal::Context ctx(device);
  const cal::Module module = ctx.Compile(suite::GenerateGeneric(spec));
  sim::LaunchConfig config;
  config.domain = Domain{256, 256};
  config.watchdog_cycles = 1;  // Any real launch takes far longer.
  const sim::Gpu gpu(device.Info());
  try {
    gpu.Execute(module.Program(), config);
    FAIL() << "expected WatchdogTimeout";
  } catch (const sim::WatchdogTimeout& e) {
    EXPECT_EQ(e.Budget(), 1u);
    EXPECT_GT(e.Reached(), e.Budget());
  }
}

TEST(WatchdogTest, CalRunSurfacesTimeoutAsCalError) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  cal::Context ctx(cal::Device::Open("4870"));
  const cal::Module module = ctx.Compile(suite::GenerateGeneric(spec));
  sim::LaunchConfig config;
  config.domain = Domain{256, 256};
  config.watchdog_cycles = 1;
  try {
    ctx.Run(module, config);
    FAIL() << "expected CalError";
  } catch (const cal::CalError& e) {
    EXPECT_EQ(e.Code(), cal::CalResult::kCalTimeout);
    EXPECT_EQ(e.Point(), module.Program().name);
  }
}

TEST(WatchdogTest, RunnerMeasureSurfacesTimeoutAsCalError) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  const suite::Runner runner(MakeRV770());
  sim::LaunchConfig config;
  config.domain = Domain{256, 256};
  config.watchdog_cycles = 1;
  try {
    runner.Measure(suite::GenerateGeneric(spec), config, {"wd_point", 1});
    FAIL() << "expected CalError";
  } catch (const cal::CalError& e) {
    EXPECT_EQ(e.Code(), cal::CalResult::kCalTimeout);
    EXPECT_EQ(e.Point(), "wd_point");
  }
}

TEST(WatchdogTest, GenerousBudgetDoesNotTrip) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  const suite::Runner runner(MakeRV770());
  sim::LaunchConfig config;
  config.domain = Domain{64, 64};
  config.repetitions = 1;
  sim::LaunchConfig unbounded = config;
  const suite::Measurement a =
      runner.Measure(suite::GenerateGeneric(spec), unbounded);
  config.watchdog_cycles = a.stats.cycles * 10;
  const suite::Measurement b =
      runner.Measure(suite::GenerateGeneric(spec), config);
  EXPECT_EQ(a.stats, b.stats);  // The budget must not perturb results.
}

// ---- Injected hang resolves via the CAL timeout path -------------------

TEST(InjectedHangTest, ResolvesAsTimeoutWithoutRunningForever) {
  ScopedFaultInjector scoped("hang:1,seed=9");
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  const suite::Runner runner(MakeRV770());
  sim::LaunchConfig config;
  config.domain = Domain{64, 64};
  config.repetitions = 1;
  try {
    runner.Measure(suite::GenerateGeneric(spec), config, {"hang_point", 1});
    FAIL() << "expected CalError";
  } catch (const cal::CalError& e) {
    EXPECT_EQ(e.Code(), cal::CalResult::kCalTimeout);
  }
}

// ---- Supplement documents degrade instead of aborting ------------------

report::Figure BuildSupplementQuick(const char* slug) {
  const suite::figures::FigureDef* def =
      suite::figures::Find(slug, suite::figures::Supplements());
  if (def == nullptr) throw std::runtime_error(slug);
  suite::figures::RunOptions opts;
  opts.quick = true;
  return suite::figures::Build(*def, opts);
}

// The row-locality ablation once measured outside any sweep, so the
// first injected launch fault escaped as an uncaught CalError.
TEST(SupplementFaultTest, RowLocalityRecordsLaunchFaultsAsDegradations) {
  ScopedFaultInjector scoped("launch:0.5,seed=7");
  const report::Figure figure =
      BuildSupplementQuick("ablation_dram_row_activation_penalty_on_fills");
  ASSERT_FALSE(figure.degradations.empty());
  for (const report::Degradation& d : figure.degradations) {
    EXPECT_EQ(d.point.rfind("row_penalty_", 0), 0u) << d.Render();
    EXPECT_NE(d.error.find("kCalLaunchFailed"), std::string::npos)
        << d.Render();
  }
}

// Every point of the row-locality sweep and every node of the frontier
// map hangs: each one is skipped as a timeout, and nothing is filled in
// from a guess.
TEST(SupplementFaultTest, RowLocalityHangsResolveAsTimeouts) {
  ScopedFaultInjector scoped("hang:1");
  for (const char* slug : {"ablation_dram_row_activation_penalty_on_fills",
                           "frontier_alu_fetch_x_gpr"}) {
    const report::Figure figure = BuildSupplementQuick(slug);
    ASSERT_FALSE(figure.degradations.empty()) << slug;
    for (const report::Degradation& d : figure.degradations) {
      EXPECT_EQ(d.status, "skipped") << d.Render();
      EXPECT_NE(d.error.find("kCalTimeout"), std::string::npos)
          << d.Render();
    }
    for (const Series& series : figure.set.All()) {
      EXPECT_TRUE(series.Points().empty()) << series.Name();
    }
    if (figure.Slug() != "frontier_alu_fetch_x_gpr") continue;
    ASSERT_TRUE(figure.frontier.has_value());
    EXPECT_EQ(figure.degradations.size(), figure.frontier->cells.size());
    for (const report::Degradation& d : figure.degradations) {
      EXPECT_EQ(d.point.rfind("node_x", 0), 0u) << d.Render();
    }
    for (const std::string& cell : figure.frontier->cells) {
      EXPECT_EQ(cell, "");
    }
  }
}

}  // namespace
}  // namespace amdmb
