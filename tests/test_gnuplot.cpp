// Tests for the gnuplot figure emitter.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "report/gnuplot_sink.hpp"
#include "report/output.hpp"

namespace amdmb {
namespace {

SeriesSet SampleFigure() {
  SeriesSet set("Fig test", "x", "seconds");
  set.Get("a").Add(1, 2.5);
  set.Get("a").Add(2, 3.5);
  set.Get("b").Add(1, 1.0);
  return set;
}

TEST(GnuplotTest, ScriptReferencesEverySeries) {
  const std::string script = GnuplotScript(SampleFigure(), "f.dat", "f.svg");
  EXPECT_NE(script.find("set output 'f.svg'"), std::string::npos);
  EXPECT_NE(script.find("using 1:2"), std::string::npos);
  EXPECT_NE(script.find("using 1:3"), std::string::npos);
  EXPECT_NE(script.find("title \"a\""), std::string::npos);
  EXPECT_NE(script.find("title \"b\""), std::string::npos);
}

TEST(GnuplotTest, WritesDatAndScriptFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_gnuplot_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path gp = WriteGnuplot(SampleFigure(), dir, "fig");
  EXPECT_TRUE(std::filesystem::exists(gp));
  EXPECT_TRUE(std::filesystem::exists(dir / "fig.dat"));

  // Both .dat header lines must be gnuplot comments.
  std::ifstream in(dir / "fig.dat");
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1.rfind("# ", 0), 0u);
  EXPECT_EQ(line2.rfind("# ", 0), 0u);
  std::filesystem::remove_all(dir);
}

report::Frontier SampleFrontier() {
  report::Frontier frontier;
  frontier.x_label = "ratio";
  frontier.y_label = "step";
  frontier.xs = {0.5, 1.0, 2.0};
  frontier.ys = {0.0, 1.0};
  frontier.cells = {"FETCH", "ALU", "ALU", "FETCH", "", "ALU"};
  frontier.measured = {true, true, false, true, false, true};
  frontier.points_measured = 4;
  frontier.points_dense = 6;
  return frontier;
}

TEST(GnuplotTest, WritesFrontierHeatmapWithStableCodes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_gnuplot_frontier";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path gp =
      WriteFrontierGnuplot(SampleFrontier(), dir, "fig");
  EXPECT_TRUE(std::filesystem::exists(gp));
  const std::filesystem::path dat = dir / "fig_frontier.dat";
  ASSERT_TRUE(std::filesystem::exists(dat));

  std::ifstream in(dat);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Sorted distinct labels get codes 0..N-1; the unresolved "" cell
  // renders as -1 below the palette.
  EXPECT_NE(text.find("# class -1 = (unresolved)"), std::string::npos);
  EXPECT_NE(text.find("# class 0 = ALU"), std::string::npos);
  EXPECT_NE(text.find("# class 1 = FETCH"), std::string::npos);
  EXPECT_NE(text.find("1 0 0\n"), std::string::npos);   // x=1 y=0 ALU.
  EXPECT_NE(text.find("1 1 -1\n"), std::string::npos);  // Unresolved.

  std::ifstream script_in(gp);
  std::string script((std::istreambuf_iterator<char>(script_in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(script.find("set view map"), std::string::npos);
  EXPECT_NE(script.find("with image"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(GnuplotTest, SinkEmitsFrontierAlongsideTheLinePlot) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amdmb_gnuplot_sink_frontier";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  report::Figure figure("Fig. 99 — test", "t", "x", "y", "claim");
  figure.set.Get("a").Add(1, 2);
  figure.frontier = SampleFrontier();
  std::ostringstream log;
  report::WriteFiles(figure, dir, std::nullopt, log);
  EXPECT_EQ(log.str(), "Gnuplot script: " + (dir / "fig_99.gp").string() +
                           "\nGnuplot script: " +
                           (dir / "fig_99_frontier.gp").string() + "\n");
  EXPECT_TRUE(std::filesystem::exists(dir / "fig_99.gp"));
  EXPECT_TRUE(std::filesystem::exists(dir / "fig_99_frontier.gp"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amdmb
