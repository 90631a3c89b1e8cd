#include <cstdlib>

// std::getenv("MIXNET_KNOB") in a comment must not fire.
const char* label = "reads getenv( by name, inside a string";
int knob() {
  const char* v = std::getenv("MIXNET_KNOB");
  return v != nullptr;
}
