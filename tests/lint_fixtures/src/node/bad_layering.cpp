// Known-bad fixture for the `layering` rule: node/ reaching up into
// core/ breaks the architecture DAG (core drives the node; a node knows
// nothing of federated rounds). Must produce only [layering] findings.
#include "core/peer.hpp"

namespace bcfl::fixture {

int reaches_above_its_layer() { return 1; }

}  // namespace bcfl::fixture
