// Allow-escape fixture for the `layering` rule: the same upward include
// as bad_layering.cpp, suppressed by an explicit allow comment. Must
// produce no findings.
// bcfl-lint: allow(layering)
#include "core/peer.hpp"

namespace bcfl::fixture {

int sanctioned_upward_edge() { return 3; }

}  // namespace bcfl::fixture
