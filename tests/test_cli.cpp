// Tests for the typed CLI layer (common/cli.hpp): registration rules,
// parse/validate behavior, did-you-mean suggestions, help handling and the
// config-file precedence chain (defaults < file < command line).
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace gnoc {
namespace {

/// Runs Parse over a brace-list of tokens (argv[0] is skipped, as in main).
Config ParseTokens(FlagSet& flags, std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

FlagSet TypicalFlags() {
  FlagSet flags("prog", "a test harness");
  flags.AddInt("threads", 0, "worker threads", [](std::int64_t v) {
    return v < 0 ? std::string("must be >= 0") : std::string();
  });
  flags.AddDouble("scale", 1.0, "scaling factor", [](double v) {
    return v <= 0 ? std::string("must be > 0") : std::string();
  });
  flags.AddBool("csv", false, "emit CSV");
  flags.AddString("workloads", "", "comma-separated workload names");
  flags.AddEnum("scheduling", "full", "scheduling mode",
                {"full", "soa"});
  return flags;
}

TEST(CliTest, ParsesTypedValues) {
  FlagSet flags = TypicalFlags();
  const Config args = ParseTokens(
      flags, {"threads=8", "scale=0.5", "csv=true", "scheduling=soa"});
  EXPECT_EQ(args.GetInt("threads", -1), 8);
  EXPECT_EQ(args.GetDouble("scale", 0), 0.5);
  EXPECT_TRUE(args.GetBool("csv", false));
  EXPECT_EQ(args.GetString("scheduling", ""), "soa");
  EXPECT_FALSE(flags.help_requested());
}

TEST(CliTest, DefaultsAreDocumentationOnly) {
  // Parse returns only explicitly-provided keys, so a driver's
  // programmatically-built configuration is never clobbered by registered
  // defaults.
  FlagSet flags = TypicalFlags();
  const Config args = ParseTokens(flags, {"threads=2"});
  EXPECT_TRUE(args.Contains("threads"));
  EXPECT_FALSE(args.Contains("scale"));
  EXPECT_FALSE(args.Contains("csv"));
  EXPECT_FALSE(args.Contains("scheduling"));
}

TEST(CliTest, RejectsUnknownFlagWithSuggestion) {
  FlagSet flags = TypicalFlags();
  try {
    ParseTokens(flags, {"thread=8"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag 'thread'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'threads'"), std::string::npos) << what;
  }
}

TEST(CliTest, UnknownFlagWithoutNearMissGetsNoSuggestion) {
  FlagSet flags = TypicalFlags();
  try {
    ParseTokens(flags, {"zzzzzzzzzz=1"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(CliTest, RejectsBadEnumValueWithSuggestion) {
  FlagSet flags("prog", "");
  flags.AddEnum("topology", "mesh", "interconnect topology",
                {"mesh", "torus", "cmesh", "circulant"});
  try {
    ParseTokens(flags, {"topology=tors"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'tors' is not one of mesh|torus|cmesh|circulant"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'torus'?"), std::string::npos) << what;
  }
}

TEST(CliTest, BadEnumValueWithoutNearMissGetsNoSuggestion) {
  FlagSet flags = TypicalFlags();
  try {
    ParseTokens(flags, {"scheduling=qqqqqqqqqq"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("is not one of full|soa"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
  }
}

TEST(CliTest, RejectsMalformedToken) {
  FlagSet flags = TypicalFlags();
  EXPECT_THROW(ParseTokens(flags, {"threads"}), CliError);
}

TEST(CliTest, RejectsBadTypedValues) {
  FlagSet flags = TypicalFlags();
  EXPECT_THROW(ParseTokens(flags, {"threads=four"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"threads=4x"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"scale=fast"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"csv=maybe"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"scheduling=turbo"}), CliError);
}

TEST(CliTest, RunsValidators) {
  FlagSet flags = TypicalFlags();
  EXPECT_THROW(ParseTokens(flags, {"threads=-1"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"scale=0"}), CliError);
  EXPECT_NO_THROW(ParseTokens(flags, {"threads=0", "scale=0.1"}));
}

TEST(CliTest, StringValidatorRuns) {
  FlagSet flags("prog", "");
  flags.AddString("routing", "xy", "routing algorithm",
                  [](const std::string& v) {
                    return v == "xy" || v == "yx"
                               ? std::string()
                               : std::string("must be xy|yx");
                  });
  EXPECT_NO_THROW(ParseTokens(flags, {"routing=yx"}));
  EXPECT_THROW(ParseTokens(flags, {"routing=zigzag"}), CliError);
}

TEST(CliTest, HelpTokensSetHelpRequested) {
  for (const std::string token : {"help", "--help", "-h", "help=1"}) {
    FlagSet flags = TypicalFlags();
    ParseTokens(flags, {token});
    EXPECT_TRUE(flags.help_requested()) << token;
  }
}

TEST(CliTest, HelpListsEveryFlagWithTypeAndDefault) {
  FlagSet flags = TypicalFlags();
  const std::string help = flags.Help();
  EXPECT_NE(help.find("usage: prog"), std::string::npos);
  EXPECT_NE(help.find("a test harness"), std::string::npos);
  EXPECT_NE(help.find("threads"), std::string::npos);
  EXPECT_NE(help.find("(default 0)"), std::string::npos);
  EXPECT_NE(help.find("full|soa"), std::string::npos);
  // The two automatic flags appear too.
  EXPECT_NE(help.find("config"), std::string::npos);
  EXPECT_NE(help.find("help"), std::string::npos);
}

// An enum flag registered from an EnumRegistry accepts what the
// registry's Parse accepts (any case, aliases too); its help text and its
// did-you-mean list only the canonical names.
TEST(CliTest, RegistryEnumAcceptsWhatItsParserAccepts) {
  const EnumRegistry<int> registry{"mode",
                                   {{"fast", 0}, {"slow", 1}, {"quick", 0}}};
  FlagSet flags("prog", "");
  flags.AddEnum("mode", "fast", "run mode", registry);
  for (const char* value : {"fast", "SLOW", "Quick"}) {
    EXPECT_EQ(ParseTokens(flags, {std::string("mode=") + value})
                  .GetString("mode", ""),
              value);
  }
  try {
    ParseTokens(flags, {"mode=fsat"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'fsat' is not one of fast|slow; did you mean "
                        "'fast'?"),
              std::string::npos)
        << what;
  }
  EXPECT_NE(flags.Help().find("fast|slow (default fast)  run mode"),
            std::string::npos);
}

TEST(CliTest, ReservedAndDuplicateNamesRejected) {
  FlagSet flags("prog", "");
  EXPECT_THROW(flags.AddInt("help", 0, ""), CliError);
  EXPECT_THROW(flags.AddString("config", "", ""), CliError);
  flags.AddInt("n", 0, "");
  EXPECT_THROW(flags.AddInt("n", 1, ""), CliError);
  EXPECT_THROW(flags.AddEnum("mode", "c", "", {"a", "b"}), CliError);
}

TEST(CliTest, CopyKeepsTheFlagDefinition) {
  FlagSet source = TypicalFlags();
  FlagSet flags("copy", "");
  flags.Copy(source, "threads").Copy(source, "scheduling");
  EXPECT_TRUE(flags.Contains("threads"));
  EXPECT_FALSE(flags.Contains("scale"));
  // Type and validator: an int that must be >= 0; an enum of two names.
  EXPECT_EQ(ParseTokens(flags, {"threads=3"}).GetInt("threads", -1), 3);
  EXPECT_THROW(ParseTokens(flags, {"threads=x"}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"threads=-1"}), CliError);
  EXPECT_NO_THROW(ParseTokens(flags, {"scheduling=soa"}));
  EXPECT_THROW(ParseTokens(flags, {"scheduling=event"}), CliError);
  // Default and doc text.
  const std::string help = flags.Help();
  EXPECT_NE(help.find("int (default 0)  worker threads"), std::string::npos);
  EXPECT_NE(help.find("full|soa (default full)  scheduling mode"),
            std::string::npos);
  // A name the source lacks throws, as does copying one twice.
  EXPECT_THROW(flags.Copy(source, "no_such_flag"), CliError);
  EXPECT_THROW(flags.Copy(source, "threads"), CliError);
}

class CliFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gnoc_cli_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << text;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(CliFileTest, ConfigFileProvidesDefaultsCliWins) {
  const std::string path =
      WriteFile("sweep.cfg", "threads=4\nscale=2.0\ncsv=true\n");
  FlagSet flags = TypicalFlags();
  const Config args =
      ParseTokens(flags, {"config=" + path, "threads=8"});
  // File value for threads is overridden by the command line...
  EXPECT_EQ(args.GetInt("threads", -1), 8);
  // ...while untouched file values survive.
  EXPECT_EQ(args.GetDouble("scale", 0), 2.0);
  EXPECT_TRUE(args.GetBool("csv", false));
}

TEST_F(CliFileTest, CliBeforeConfigTokenStillWins) {
  // Precedence is by source (file < CLI), not token order.
  const std::string path = WriteFile("sweep.cfg", "threads=4\n");
  FlagSet flags = TypicalFlags();
  const Config args = ParseTokens(flags, {"threads=8", "config=" + path});
  EXPECT_EQ(args.GetInt("threads", -1), 8);
}

TEST_F(CliFileTest, ConfigFileKeysAreValidated) {
  const std::string unknown = WriteFile("u.cfg", "therads=4\n");
  const std::string bad = WriteFile("b.cfg", "threads=-2\n");
  FlagSet flags = TypicalFlags();
  EXPECT_THROW(ParseTokens(flags, {"config=" + unknown}), CliError);
  EXPECT_THROW(ParseTokens(flags, {"config=" + bad}), CliError);
}

TEST_F(CliFileTest, MissingConfigFileThrows) {
  FlagSet flags = TypicalFlags();
  EXPECT_THROW(ParseTokens(flags, {"config=" + (dir_ / "nope.cfg").string()}),
               std::runtime_error);
}

TEST_F(CliFileTest, ConfigFromFileParsesCommentsAndBlanks) {
  const std::string path =
      WriteFile("full.cfg", "# a comment\nwidth=8\n\nrouting=yx\n");
  const Config cfg = Config::FromFile(path);
  EXPECT_EQ(cfg.GetInt("width", 0), 8);
  EXPECT_EQ(cfg.GetString("routing", ""), "yx");
}

TEST_F(CliFileTest, ConfigFromFileRejectsBareTokens) {
  const std::string path = WriteFile("bad.cfg", "width=8\noops\n");
  EXPECT_THROW(Config::FromFile(path), std::invalid_argument);
}

}  // namespace
}  // namespace gnoc
