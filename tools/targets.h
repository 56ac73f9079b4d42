// The one registry of firmware images every `cheriot` subcommand runs: each
// example and test image shipped in the repo, rebuilt with no-op entry
// points (the structure is what lint, audit and the recorders look at), plus
// the seeded images — firmware carrying one deliberate defect so a tool has
// a known true positive to find. `--all` means the shipped images only;
// seeded ones are addressed by name.
#ifndef TOOLS_TARGETS_H_
#define TOOLS_TARGETS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/firmware/image.h"

namespace cheriot::tools {

struct Target {
  std::string name;         // CLI name, e.g. "iot-mqtt-app"
  std::string description;  // one line for --list-targets
  bool seeded;              // a deliberate true positive; never in --all
  std::function<FirmwareImage()> build;
};

// Every image, shipped and seeded, sorted by name.
const std::vector<Target>& Targets();

// nullptr when unknown.
const Target* FindTarget(const std::string& name);

}  // namespace cheriot::tools

#endif  // TOOLS_TARGETS_H_
