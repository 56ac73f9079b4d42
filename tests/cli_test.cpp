// The `cheriot` executable's command-line contract: exit 0 ok, 1 a check
// failed, 2 usage or load failure. These drive the built binary, so a
// --check that stops gating (or a flag typo that silently runs a default)
// fails here rather than turning a CI gate into a no-op.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace {

constexpr const char* kRecorders[] = {"trace", "health", "flow", "cov"};

// Runs `cheriot <args>` with its output discarded; returns the exit code.
int Cheriot(const std::string& args) {
  const std::string cmd = std::string(CHERIOT_BIN) + " " + args +
                          " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << args;
  return WEXITSTATUS(rc);
}

std::string OutDir() { return " --out-dir=" + ::testing::TempDir(); }

TEST(CliTest, RecorderCheckPassesOnEverySubcommand) {
  for (const char* sub : kRecorders) {
    EXPECT_EQ(Cheriot(std::string(sub) +
                      " --target=quickstart --cycles=200000 --check" +
                      OutDir()),
              0)
        << sub;
  }
}

// The corruption lands on the last board's fingerprint, so a 2-board run
// only fails if boards after board 0 are compared too.
TEST(CliTest, RecorderCheckCatchesInjectedMismatchOnLastBoard) {
  for (const char* sub : kRecorders) {
    EXPECT_EQ(Cheriot(std::string(sub) +
                      " --target=quickstart --cycles=200000 --fleet=2"
                      " --check --inject-check-failure" +
                      OutDir()),
              1)
        << sub;
  }
}

TEST(CliTest, MalformedCommandLinesExitTwo) {
  EXPECT_EQ(Cheriot(""), 2);
  EXPECT_EQ(Cheriot("bogus --all"), 2);
  EXPECT_EQ(Cheriot("trace --target=no-such-image" + OutDir()), 2);
  EXPECT_EQ(Cheriot("trace" + OutDir()), 2);
  EXPECT_EQ(Cheriot("trace --target=quickstart --bogus" + OutDir()), 2);
  // Numeric flags are strict: no silent zero, default or wraparound.
  EXPECT_EQ(Cheriot("mc --target=quickstart --max-schedules=abc" + OutDir()),
            2);
  EXPECT_EQ(Cheriot("trace --target=quickstart --fleet=-1" + OutDir()), 2);
  EXPECT_EQ(Cheriot("trace --target=quickstart --fleet=abc" + OutDir()), 2);
  EXPECT_EQ(Cheriot("trace --target=quickstart --cycles=xyz" + OutDir()), 2);
  EXPECT_EQ(Cheriot("health --target=quickstart --cycles=5x" + OutDir()), 2);
  EXPECT_EQ(Cheriot("flow --target=quickstart --publishes=" + OutDir()), 2);
  // A flag belongs to its own subcommand only.
  EXPECT_EQ(Cheriot("trace --target=quickstart --report" + OutDir()), 2);
  // flow and cov record across boards: there is no single-board mode.
  EXPECT_EQ(Cheriot("cov --target=quickstart --fleet=0" + OutDir()), 2);
}

// One registry: an image seeded for one tool resolves in every other.
TEST(CliTest, SeededImagesResolveInEverySubcommand) {
  EXPECT_EQ(Cheriot("lint --target=seeded-lost-wake"), 0);
  const int mc = Cheriot("mc --target=cov-overprivileged --max-schedules=8" +
                         OutDir());
  EXPECT_TRUE(mc == 0 || mc == 1) << mc;
}

// The one registry image that crashes under its default run: --scenes must
// dump exactly one crash scene, and `snap info` must read it back.
TEST(CliTest, HealthScenesDumpsOneReadableSceneForSeededUaf) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("cheriot_scenes_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_EQ(Cheriot("health --target=seeded-uaf --scenes --out-dir=" +
                    dir.string()),
            0);
  std::vector<fs::path> scenes;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("scene_", 0) == 0) {
      EXPECT_EQ(name.rfind("scene_seeded-uaf_", 0), 0u) << name;
      EXPECT_EQ(entry.path().extension(), ".snap") << name;
      scenes.push_back(entry.path());
    }
  }
  ASSERT_EQ(scenes.size(), 1u);
  EXPECT_EQ(Cheriot("snap info --in=" + scenes[0].string()), 0);
  fs::remove_all(dir);
}

TEST(CliTest, HelpExitsZero) {
  EXPECT_EQ(Cheriot("--help"), 0);
  for (const char* sub : {"lint", "trace", "health", "flow", "cov", "snap",
                          "mc"}) {
    EXPECT_EQ(Cheriot(std::string(sub) + " --help"), 0) << sub;
  }
}

}  // namespace
