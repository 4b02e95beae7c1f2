// Negative-path coverage for the scenario-file validator: one malformed
// document per error class, each asserting the diagnostic names the
// offending key or value — the same error discipline as
// membership::parse_spec ("actionable, or it didn't happen").
#include <gtest/gtest.h>

#include <string>

#include "harness/gate.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

/// Wrap body fields into a minimally valid document and expect from_json to
/// reject it with a message containing every needle.
void expect_rejected(const std::string& extra_fields,
                     std::initializer_list<const char*> needles) {
  const std::string doc =
      "{\"type\": \"scenario\", \"version\": 1, \"name\": \"t\"" +
      (extra_fields.empty() ? "" : ", " + extra_fields) + "}";
  std::string error;
  const auto loaded = ScenarioFile::from_json(doc, error);
  ASSERT_FALSE(loaded.has_value()) << doc;
  for (const char* needle : needles) {
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error '" << error << "' does not name '" << needle << "'";
  }
}

TEST(ScenarioFileValidator, UnknownKeyIsNamed) {
  expect_rejected("\"frobnicate\": 3", {"unknown key", "frobnicate"});
}

TEST(ScenarioFileValidator, BadTypeNamesTheField) {
  expect_rejected("\"nodes\": \"plenty\"",
                  {"field 'nodes'", "not an integer"});
  expect_rejected("\"checked\": 3", {"field 'checked'", "not a boolean"});
  expect_rejected("\"timeline\": \"block\"",
                  {"field 'timeline'", "not an array"});
}

TEST(ScenarioFileValidator, OutOfRangeValueSurfacesScenarioValidation) {
  // Scenario::validate's message names the field and the value.
  expect_rejected("\"nodes\": 1", {"cluster_size (1)"});
}

TEST(ScenarioFileValidator, TrailingColonMembershipSpecIsActionable) {
  expect_rejected("\"membership\": \"central:\"",
                  {"bad membership spec 'central:'",
                   "empty parameter list after 'central:'"});
  expect_rejected("\"membership\": \"carrier-pigeon\"",
                  {"unknown membership backend 'carrier-pigeon'"});
}

TEST(ScenarioFileValidator, EmptyTimelineEntryIsNamed) {
  expect_rejected("\"timeline\": [\"\"]", {"bad timeline spec ''"});
  expect_rejected("\"timeline\": [\"wobble@0s:10s\"]",
                  {"bad timeline spec 'wobble@0s:10s'"});
}

TEST(ScenarioFileValidator, UnknownConfigAndOverrideAreNamed) {
  expect_rejected("\"config\": \"Turbo\"", {"unknown config 'Turbo'"});
  expect_rejected("\"config_overrides\": {\"warp_factor\": 9}",
                  {"unknown config override", "warp_factor"});
  expect_rejected("\"config_overrides\": 5",
                  {"'config_overrides'", "not an object"});
}

TEST(ScenarioFileValidator, WrongDocumentTypeAndVersionAreExplicit) {
  std::string error;
  EXPECT_FALSE(ScenarioFile::from_json(
                   "{\"type\": \"trace\", \"version\": 1, \"name\": \"t\"}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("type is 'trace'"), std::string::npos) << error;

  EXPECT_FALSE(ScenarioFile::from_json(
                   "{\"type\": \"scenario\", \"version\": 7, "
                   "\"name\": \"t\"}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("version 7"), std::string::npos) << error;

  EXPECT_FALSE(ScenarioFile::from_json("not json at all", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioFileValidator, MissingNameIsRequired) {
  std::string error;
  EXPECT_FALSE(
      ScenarioFile::from_json("{\"type\": \"scenario\", \"version\": 1}",
                              error)
          .has_value());
  EXPECT_NE(error.find("'name'"), std::string::npos) << error;
}

// A document nested 200k deep used to overflow the scanner's stack
// (SIGSEGV); the depth bound makes it an ordinary parse error.
TEST(ScenarioFileValidator, DeepNestingIsAnErrorNotACrash) {
  const int levels = 200000;
  expect_rejected("\"a\": " + std::string(levels, '[') +
                      std::string(levels, ']'),
                  {"nesting deeper than 64"});
}

TEST(BaselinesValidator, StrictAboutKeysTypesAndDuplicates) {
  std::string error;
  EXPECT_FALSE(baselines_from_json(
                   "{\"type\": \"scenario-baselines\", \"version\": 1, "
                   "\"entries\": [], \"bogus\": 1}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  EXPECT_FALSE(baselines_from_json(
                   "{\"type\": \"trace\", \"version\": 1, \"entries\": []}",
                   error)
                   .has_value());
  EXPECT_NE(error.find("type is 'trace'"), std::string::npos) << error;

  const std::string dup =
      "{\"type\": \"scenario-baselines\", \"version\": 1, \"entries\": ["
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": []},"
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": []}]}";
  EXPECT_FALSE(baselines_from_json(dup, error).has_value());
  EXPECT_NE(error.find("duplicate baseline entry 'a'"), std::string::npos)
      << error;

  const std::string bad_band =
      "{\"type\": \"scenario-baselines\", \"version\": 1, \"entries\": ["
      "{\"scenario\": \"a\", \"seed\": \"1\", \"bands\": ["
      "{\"metric\": \"fp_events\", \"lo\": 0, \"ceiling\": 4}]}]}";
  EXPECT_FALSE(baselines_from_json(bad_band, error).has_value());
  EXPECT_NE(error.find("ceiling"), std::string::npos) << error;
  EXPECT_NE(error.find("'a'"), std::string::npos) << error;
}

}  // namespace
}  // namespace lifeguard::harness
