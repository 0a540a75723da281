// Known-good fixture for the `layering` rule: core/ is the top layer on
// the include axis, so reaching down into chain/, net/ and node/ is all
// within the DAG. Must produce no findings.
#include "chain/blockchain.hpp"
#include "net/transport.hpp"
#include "node/node.hpp"

namespace bcfl::fixture {

int composed_from_the_layers_beneath() { return 4; }

}  // namespace bcfl::fixture
