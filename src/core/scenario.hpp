// Declarative scenario engine: experiments as data, not binaries.
//
// A ScenarioSpec is a JSON document that composes everything a deployment
// needs — DecentralizedConfig knobs, WaitPolicy / AggregationStrategy specs,
// network fault injection (net/conditions.hpp), stragglers, poisoners, peer
// churn — plus parameter sweeps. A `"mode": "vanilla"` spec instead runs the
// paper's centralized baseline (fl/vanilla.hpp, Table I / Fig. 3) with the
// same model, data and seed keys. `run_scenario` expands the sweep grid and
// fans the points out through the deterministic compute engine
// (core/parallel), one self-contained run per task, then emits one
// BENCH-schema JSON document. Every value in the document is a pure
// function of (spec, seed): the same spec produces byte-identical JSON at
// any BCFL_THREADS setting, which is what lets CI gate on it.
//
// The spec schema is documented in docs/scenarios.md; checked-in specs
// live under scenarios/.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "fl/task.hpp"
#include "ml/data.hpp"

namespace bcfl::core {

/// Minimal JSON document type: a strict parser (errors carry byte offsets)
/// and an insertion-ordered writer. Objects keep member order, so dumps are
/// reproducible and diffs read like the spec.
class JsonValue {
public:
    enum class Kind { null, boolean, integer, number, string, array, object };

    JsonValue() = default;
    JsonValue(bool v) : kind_(Kind::boolean), boolean_(v) {}
    JsonValue(int v) : kind_(Kind::integer), integer_(v) {}
    JsonValue(std::int64_t v) : kind_(Kind::integer), integer_(v) {}
    JsonValue(std::uint32_t v) : kind_(Kind::integer), integer_(v) {}
    JsonValue(std::uint64_t v)
        : kind_(Kind::integer), integer_(static_cast<std::int64_t>(v)) {
        // Integers are stored as int64; past 2^63-1 the dump would read
        // negative. Nothing in the domain produces such values — fail
        // loudly rather than corrupt a document.
        if (v > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max())) {
            throw Error("json: integer value exceeds 2^63-1");
        }
    }
    JsonValue(double v) : kind_(Kind::number), number_(v) {}
    JsonValue(const char* v) : kind_(Kind::string), string_(v) {}
    JsonValue(std::string v) : kind_(Kind::string), string_(std::move(v)) {}

    static JsonValue array();
    static JsonValue object();

    /// Parses a complete document; throws Error on any syntax problem,
    /// trailing garbage, or nesting deeper than an internal cap.
    static JsonValue parse(std::string_view text);

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }
    [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
    [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
    [[nodiscard]] bool is_number() const {
        return kind_ == Kind::number || kind_ == Kind::integer;
    }
    [[nodiscard]] bool is_bool() const { return kind_ == Kind::boolean; }

    /// Typed accessors; each throws Error naming `context` on mismatch.
    [[nodiscard]] bool as_bool(const std::string& context) const;
    [[nodiscard]] double as_double(const std::string& context) const;
    [[nodiscard]] std::uint64_t as_u64(const std::string& context) const;
    [[nodiscard]] const std::string& as_string(
        const std::string& context) const;
    [[nodiscard]] const std::vector<JsonValue>& items(
        const std::string& context) const;
    [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
    members(const std::string& context) const;
    /// Object member lookup; nullptr when absent.
    [[nodiscard]] const JsonValue* find(const std::string& key) const;

    JsonValue& set(const std::string& key, JsonValue value);
    JsonValue& push(JsonValue value);

    [[nodiscard]] std::string dump() const;

    /// Byte offset of this value's first token in the parsed document
    /// (0 for programmatically built values). Validation errors cite it so
    /// a failing spec line can be found without re-reading the schema.
    [[nodiscard]] std::size_t source_offset() const { return source_offset_; }
    void set_source_offset(std::size_t offset) { source_offset_ = offset; }

private:
    Kind kind_ = Kind::null;
    bool boolean_ = false;
    std::int64_t integer_ = 0;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> elements_;
    std::vector<std::pair<std::string, JsonValue>> members_;
    std::size_t source_offset_ = 0;

    void write(std::string& out) const;
};

/// One sweep axis: a sweepable scalar key and the values it takes. Axes
/// keep spec order; the grid is their cartesian product with the last axis
/// varying fastest.
struct SweepAxis {
    std::string key;
    std::vector<JsonValue> values;
};

struct ScenarioSpec {
    std::string name;               // [a-z0-9_]+, names the output file
    /// "decentralized" (the chain deployment in `base`) or "vanilla" (the
    /// centralized baseline: `base` contributes only peers, rounds, seed
    /// and an aggregation of best_combination or fedavg_all).
    std::string mode = "decentralized";
    std::string model = "simple";   // "simple" | "effnet"
    /// Transport backend the deployment runs over: "sim" (deterministic
    /// simulation — the only backend the grid engine accepts, since its
    /// byte-identical guarantee is what CI diffs) or "tcp" (real loopback
    /// sockets, wall-clock time — executed by examples/bcfl_soak).
    std::string transport = "sim";  // "sim" | "tcp"
    /// Hidden-layer width of the "simple" model; small values make large-
    /// roster scaling scenarios train in seconds (ignored by "effnet").
    std::size_t model_hidden = 96;
    /// Worker threads for the grid fan-out (0 = ambient BCFL_THREADS /
    /// hardware default; at most parallel::kMaxThreads). Points always run
    /// their inner engine serially — the grid owns the worker pool.
    std::size_t threads = 0;
    ml::SyntheticCifarConfig data;  // paper_data_config() defaults
    DecentralizedConfig base;       // paper_chain_config() defaults
    std::vector<SweepAxis> sweep;
};

/// Parses and validates a spec document (policy specs are instantiated,
/// network references checked against the peer count, every sweep value
/// dry-applied). Throws Error with a "scenario:" prefix on any problem.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view json_text);

/// Reads `path` and parses it; file errors and parse errors both throw.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

struct ScenarioPoint {
    std::string label;  // "wait_policy=deadline=120s;loss=0.05" or "base"
    std::vector<std::pair<std::string, JsonValue>> overrides;
    DecentralizedConfig config;
};

/// Expands the sweep grid in deterministic order.
[[nodiscard]] std::vector<ScenarioPoint> expand_grid(
    const ScenarioSpec& spec);

/// The FL task a spec describes: its `data` section split over `peers`
/// clients, and its `model` (with `model_hidden` for "simple").
[[nodiscard]] fl::FlTask make_scenario_task(const ScenarioSpec& spec);

/// Runs every grid point and returns the BENCH-schema document
/// ({"bench":"scenario_<name>", ..., "points":[...]}). The task is built
/// by make_scenario_task; the overload lets tests inject a miniature task
/// instead.
[[nodiscard]] JsonValue run_scenario(const ScenarioSpec& spec);
[[nodiscard]] JsonValue run_scenario(const ScenarioSpec& spec,
                                     const fl::FlTask& task);

/// Appends one value to a determinism fingerprint at full round-trip
/// precision ("%.17g;"). Every fitness_fingerprint — scenario points and
/// benches alike — goes through this one formatter.
void append_fingerprint(std::string& out, double value);

/// Writes `doc` (plus trailing newline) to `path`; throws Error on I/O
/// failure.
void write_scenario_json(const std::string& path, const JsonValue& doc);

}  // namespace bcfl::core
