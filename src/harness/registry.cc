// ScenarioRegistry — the catalog is the committed scenarios/*.json files.
//
// The file texts are compiled into the library by the root CMakeLists.txt
// (a generated source defining embedded_scenario_files()). This TU only
// declares that function, so a program that links the library sources
// without the generated one — and never calls builtin() — still links.
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "harness/scenario.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {

/// {file name, file text} for every embedded scenario file, in file-name
/// order. Generated at build time; see CMakeLists.txt.
std::span<const std::pair<std::string_view, std::string_view>>
embedded_scenario_files();

void ScenarioRegistry::add(Scenario s) {
  if (auto errors = s.validate(); !errors.empty()) {
    throw ScenarioError(std::move(errors));
  }
  if (find(s.name) != nullptr) {
    throw ScenarioError({"a scenario named '" + s.name +
                         "' is already registered — scenario names are "
                         "unique registry keys"});
  }
  scenarios_.push_back(std::move(s));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

namespace {

ScenarioRegistry load_builtin() {
  ScenarioRegistry reg;
  for (const auto& [file, text] : embedded_scenario_files()) {
    std::string error;
    auto s = ScenarioFile::from_json(std::string(text), error);
    if (!s) {
      throw ScenarioError({"scenarios/" + std::string(file) + ": " + error});
    }
    if (ScenarioFile::filename(*s) != file) {
      throw ScenarioError({"scenarios/" + std::string(file) +
                           ": names scenario '" + s->name +
                           "' — a catalog file must be named <name>.json"});
    }
    reg.add(std::move(*s));
  }
  return reg;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  // Meyers singleton: C++11 guarantees race-free one-time initialization,
  // and the registry is immutable afterwards — safe to call from concurrent
  // campaign workers.
  static const ScenarioRegistry reg = load_builtin();
  return reg;
}

}  // namespace lifeguard::harness
