// lint fixture: known-good — code above the seam speaking the abstract
// interface only. Referencing net::Transport (or SimTransport, whose
// run_until drives the simulated clock) is exactly what the sim-coupling
// rule wants.
namespace bcfl::fixture {

namespace net {
class Transport;
class SimTransport;
}  // namespace net

struct DecoupledRunner {
    net::Transport* transport = nullptr;
};

void drive(net::Transport& transport);

void bench_clock(net::SimTransport& transport) {
    // Benches drive the simulated clock through SimTransport::run_until,
    // never through a concrete Simulation type.
    (void)transport;
}

}  // namespace bcfl::fixture
