#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/error.hpp"
#include "core/paper_setup.hpp"
#include "core/parallel.hpp"
#include "core/policy.hpp"

namespace bcfl::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw Error("scenario: " + what);
}

// ------------------------------------------------------------ JSON parser

struct Parser {
    std::string_view text;
    std::size_t pos = 0;

    static constexpr int kMaxDepth = 32;

    [[noreturn]] void die(const std::string& what) const {
        fail("JSON parse error at offset " + std::to_string(pos) + ": " +
             what);
    }

    [[nodiscard]] bool done() const { return pos >= text.size(); }

    void skip_ws() {
        while (!done()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos;
        }
    }

    char next() {
        if (done()) die("unexpected end of input");
        return text[pos++];
    }

    void expect(char wanted) {
        const char got = next();
        if (got != wanted) {
            --pos;
            die(std::string("expected '") + wanted + "'");
        }
    }

    void expect_word(std::string_view word) {
        if (text.substr(pos, word.size()) != word) die("invalid literal");
        pos += word.size();
    }

    JsonValue parse_value(int depth) {
        if (depth > kMaxDepth) die("nesting too deep");
        skip_ws();
        if (done()) die("unexpected end of input");
        // Every parsed value remembers where its token began, so spec
        // validation errors can cite the exact byte offset.
        const std::size_t at = pos;
        const char c = text[pos];
        JsonValue out;
        switch (c) {
            case '{': out = parse_object(depth); break;
            case '[': out = parse_array(depth); break;
            case '"': out = JsonValue(parse_string()); break;
            case 't': expect_word("true"); out = JsonValue(true); break;
            case 'f': expect_word("false"); out = JsonValue(false); break;
            case 'n': expect_word("null"); out = JsonValue(); break;
            default: out = parse_number(); break;
        }
        out.set_source_offset(at);
        return out;
    }

    JsonValue parse_object(int depth) {
        expect('{');
        JsonValue out = JsonValue::object();
        skip_ws();
        if (!done() && text[pos] == '}') {
            ++pos;
            return out;
        }
        for (;;) {
            skip_ws();
            if (done() || text[pos] != '"') die("expected member name");
            std::string key = parse_string();
            // Last-one-wins duplicate members are how a spec silently runs
            // a different experiment than its author wrote; reject them.
            if (out.find(key) != nullptr) {
                die("duplicate member \"" + key + "\"");
            }
            skip_ws();
            expect(':');
            out.set(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char c = next();
            if (c == '}') return out;
            if (c != ',') {
                --pos;
                die("expected ',' or '}'");
            }
        }
    }

    JsonValue parse_array(int depth) {
        expect('[');
        JsonValue out = JsonValue::array();
        skip_ws();
        if (!done() && text[pos] == ']') {
            ++pos;
            return out;
        }
        for (;;) {
            out.push(parse_value(depth + 1));
            skip_ws();
            const char c = next();
            if (c == ']') return out;
            if (c != ',') {
                --pos;
                die("expected ',' or ']'");
            }
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                die("unescaped control character in string");
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = next();
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = next();
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else die("invalid \\u escape");
                    }
                    if (code >= 0xd800 && code <= 0xdfff) {
                        die("surrogate pairs are not supported");
                    }
                    // UTF-8 encode (specs are ASCII in practice).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                }
                default: die("invalid escape sequence");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t begin = pos;
        if (!done() && text[pos] == '-') ++pos;
        bool integral = true;
        while (!done()) {
            const char c = text[pos];
            if (c >= '0' && c <= '9') {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == begin) die("invalid value");
        const std::string token(text.substr(begin, pos - begin));
        char* end = nullptr;
        if (integral) {
            errno = 0;
            const long long v = std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end != nullptr && *end == '\0') {
                return JsonValue(static_cast<std::int64_t>(v));
            }
        }
        errno = 0;
        const double v = std::strtod(token.c_str(), &end);
        if (errno != 0 || end == nullptr || *end != '\0' ||
            end == token.c_str()) {
            pos = begin;
            die("invalid number \"" + token + "\"");
        }
        return JsonValue(v);
    }
};

void write_escaped(const std::string& s, std::string& out) {
    out.push_back('"');
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                    out += buffer;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

}  // namespace

JsonValue JsonValue::array() {
    JsonValue v;
    v.kind_ = Kind::array;
    return v;
}

JsonValue JsonValue::object() {
    JsonValue v;
    v.kind_ = Kind::object;
    return v;
}

JsonValue JsonValue::parse(std::string_view text) {
    Parser parser{text};
    JsonValue value = parser.parse_value(0);
    parser.skip_ws();
    if (!parser.done()) parser.die("trailing content after document");
    return value;
}

bool JsonValue::as_bool(const std::string& context) const {
    if (kind_ != Kind::boolean) fail("\"" + context + "\" must be a boolean");
    return boolean_;
}

double JsonValue::as_double(const std::string& context) const {
    if (kind_ == Kind::integer) return static_cast<double>(integer_);
    if (kind_ == Kind::number) return number_;
    fail("\"" + context + "\" must be a number");
}

std::uint64_t JsonValue::as_u64(const std::string& context) const {
    if (kind_ != Kind::integer || integer_ < 0) {
        // (Values past 2^63-1 overflow the integer representation and
        // land here via the double path — the bound is intentional.)
        fail("\"" + context + "\" must be an integer in [0, 2^63)");
    }
    return static_cast<std::uint64_t>(integer_);
}

const std::string& JsonValue::as_string(const std::string& context) const {
    if (kind_ != Kind::string) fail("\"" + context + "\" must be a string");
    return string_;
}

const std::vector<JsonValue>& JsonValue::items(
    const std::string& context) const {
    if (kind_ != Kind::array) fail("\"" + context + "\" must be an array");
    return elements_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members(
    const std::string& context) const {
    if (kind_ != Kind::object) fail("\"" + context + "\" must be an object");
    return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
    if (kind_ != Kind::object) return nullptr;
    for (const auto& [name, value] : members_) {
        if (name == key) return &value;
    }
    return nullptr;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
    kind_ = Kind::object;
    members_.emplace_back(key, std::move(value));
    return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
    kind_ = Kind::array;
    elements_.push_back(std::move(value));
    return *this;
}

std::string JsonValue::dump() const {
    std::string out;
    write(out);
    return out;
}

void JsonValue::write(std::string& out) const {
    switch (kind_) {
        case Kind::null: out += "null"; break;
        case Kind::boolean: out += boolean_ ? "true" : "false"; break;
        case Kind::integer: out += std::to_string(integer_); break;
        case Kind::number: {
            char buffer[32];
            std::snprintf(buffer, sizeof(buffer), "%.10g", number_);
            out += buffer;
            break;
        }
        case Kind::string: write_escaped(string_, out); break;
        case Kind::array: {
            out.push_back('[');
            bool first = true;
            for (const JsonValue& element : elements_) {
                if (!first) out.push_back(',');
                first = false;
                element.write(out);
            }
            out.push_back(']');
            break;
        }
        case Kind::object: {
            out.push_back('{');
            bool first = true;
            for (const auto& [key, value] : members_) {
                if (!first) out.push_back(',');
                first = false;
                write_escaped(key, out);
                out.push_back(':');
                value.write(out);
            }
            out.push_back('}');
            break;
        }
    }
}

// --------------------------------------------------------- spec parsing

namespace {

/// Largest roster a spec may declare ("peers"); peer references in the
/// network section are bounded by it too.
constexpr std::size_t kMaxPeers = 512;

double require_fraction(double v, const std::string& key) {
    if (v < 0.0 || v > 1.0) {
        fail("\"" + key + "\" must be within [0, 1]");
    }
    return v;
}

double require_positive(double v, const std::string& key) {
    if (!(v > 0.0)) fail("\"" + key + "\" must be positive");
    return v;
}

/// Like fail(), but cites the byte offset of the offending parsed value so
/// the failing spec construct can be located directly.
[[noreturn]] void fail_at(const JsonValue& value, const std::string& what) {
    fail(what + " (at offset " + std::to_string(value.source_offset()) +
         ")");
}

/// True when an AggregationStrategy spec names a combination-search
/// strategy (exponential in its input width); the head token is the part
/// before the first ','.
bool is_combination_search(const std::string& spec) {
    const std::string head = spec.substr(0, spec.find(','));
    return head == "best_combination" || head == "consider";
}

/// Widest roster any combination-search strategy would enumerate over in
/// this config: peers when flat; per-tier widths when hierarchical.
/// Resolves the topology (throwing its validation errors) as a side
/// effect, so every sweep point's partition is checked at parse time.
void validate_aggregation_widths(const DecentralizedConfig& config) {
    constexpr std::size_t kMaxComboWidth = 8;
    const auto check = [&](const std::string& spec, std::size_t width,
                           const char* where) {
        if (is_combination_search(spec) && width > kMaxComboWidth) {
            fail(std::string(where) + " \"" + spec +
                 "\" enumerates combinations over " + std::to_string(width) +
                 " inputs; the search is exponential, so widths above " +
                 std::to_string(kMaxComboWidth) +
                 " are rejected (use clusters or a linear strategy)");
        }
    };
    if (!config.topology.enabled()) {
        check(config.aggregation, config.peers, "aggregation");
        return;
    }
    const ResolvedTopology topo =
        resolve_topology(config.topology, config.peers);
    check(config.topology.head_aggregation, topo.max_cluster_size(),
          "topology.head_aggregation");
    check(config.topology.top_aggregation, topo.heads.size(),
          "topology.top_aggregation");
}

/// Peer references must be range-checked *before* the narrowing NodeId
/// cast, or 2^32 wraps back into the roster and passes validation. The
/// exact bound (< peers) is validate_peer_refs', once "peers" is known.
net::NodeId parse_node_id(const JsonValue& value,
                          const std::string& context) {
    const std::uint64_t id = value.as_u64(context);
    if (id >= kMaxPeers) {
        fail("\"" + context + "\": peer index " + std::to_string(id) +
             " is not a plausible roster index");
    }
    return static_cast<net::NodeId>(id);
}

std::vector<std::size_t> parse_index_array(const JsonValue& value,
                                           const std::string& key) {
    std::vector<std::size_t> out;
    for (const JsonValue& item : value.items(key)) {
        out.push_back(item.as_u64(key + " entry"));
    }
    return out;
}

void parse_topology(const JsonValue& value, TopologyConfig& topology) {
    for (const auto& [key, field] : value.members("topology")) {
        if (key == "cluster_size") {
            topology.cluster_size = field.as_u64("topology.cluster_size");
        } else if (key == "clusters") {
            for (const JsonValue& cluster :
                 field.items("topology.clusters")) {
                topology.clusters.push_back(
                    parse_index_array(cluster, "topology.clusters entry"));
            }
        } else if (key == "heads") {
            topology.heads = parse_index_array(field, "topology.heads");
        } else if (key == "head_policy") {
            topology.head_policy = field.as_string(key);
            (void)make_wait_policy(topology.head_policy);
        } else if (key == "head_aggregation") {
            topology.head_aggregation = field.as_string(key);
            (void)make_aggregation_strategy(topology.head_aggregation);
        } else if (key == "top_policy") {
            topology.top_policy = field.as_string(key);
            (void)make_wait_policy(topology.top_policy);
        } else if (key == "top_aggregation") {
            topology.top_aggregation = field.as_string(key);
            (void)make_aggregation_strategy(topology.top_aggregation);
        } else if (key == "member_timeout_s") {
            topology.member_timeout = net::from_seconds(
                require_positive(field.as_double(key), key));
        } else {
            fail_at(field, "topology: unknown key \"" + key + "\"");
        }
    }
}

/// Applies one scalar (sweepable) spec key to a config. Returns false when
/// the key is not in the scalar table; throws on a bad value. These
/// literal comparisons are harvested by scripts/check_docs.sh, which
/// requires every key to be documented in docs/scenarios.md.
bool apply_scalar_key(DecentralizedConfig& config, const std::string& key,
                      const JsonValue& value) {
    if (key == "rounds") {
        config.rounds = value.as_u64(key);
        if (config.rounds == 0) fail("\"rounds\" must be >= 1");
        return true;
    }
    if (key == "seed") {
        config.seed = value.as_u64(key);
        return true;
    }
    if (key == "wait_policy") {
        config.wait_policy = value.as_string(key);
        (void)make_wait_policy(config.wait_policy);  // validate eagerly
        return true;
    }
    if (key == "aggregation") {
        config.aggregation = value.as_string(key);
        (void)make_aggregation_strategy(config.aggregation);
        return true;
    }
    if (key == "train_seconds") {
        config.train_duration = net::from_seconds(
            require_positive(value.as_double(key), key));
        return true;
    }
    if (key == "train_cpu_load") {
        config.train_cpu_load = require_fraction(value.as_double(key), key);
        return true;
    }
    if (key == "chunk_bytes") {
        config.chunk_bytes = value.as_u64(key);
        if (config.chunk_bytes == 0) fail("\"chunk_bytes\" must be >= 1");
        return true;
    }
    if (key == "payload_pad_bytes") {
        config.payload_pad_bytes = value.as_u64(key);
        return true;
    }
    if (key == "stragglers") {
        config.stragglers = parse_index_array(value, key);
        return true;
    }
    if (key == "straggler_train_seconds") {
        config.straggler_train_duration = net::from_seconds(
            require_positive(value.as_double(key), key));
        return true;
    }
    if (key == "poisoned_peers") {
        config.poisoned_peers = parse_index_array(value, key);
        return true;
    }
    if (key == "join_delays_s") {
        config.peer_start_delays.clear();
        for (const JsonValue& item : value.items(key)) {
            const double delay = item.as_double(key + " entry");
            if (delay < 0.0) {
                fail("\"join_delays_s\" entries must be >= 0");
            }
            config.peer_start_delays.push_back(net::from_seconds(delay));
        }
        return true;
    }
    if (key == "initial_difficulty") {
        config.initial_difficulty = value.as_u64(key);
        return true;
    }
    if (key == "min_difficulty") {
        config.min_difficulty = value.as_u64(key);
        return true;
    }
    if (key == "target_interval_ms") {
        config.target_interval_ms = value.as_u64(key);
        return true;
    }
    if (key == "hash_rate_per_node") {
        config.hash_rate_per_node =
            require_positive(value.as_double(key), key);
        return true;
    }
    if (key == "max_sim_seconds") {
        config.max_sim_time = net::from_seconds(
            require_positive(value.as_double(key), key));
        return true;
    }
    if (key == "latency_ms") {
        config.link.latency = net::from_seconds(
            require_positive(value.as_double(key), key) / 1e3);
        return true;
    }
    if (key == "jitter") {
        config.link.jitter_fraction =
            require_fraction(value.as_double(key), key);
        return true;
    }
    if (key == "loss") {
        config.link.loss_rate = require_fraction(value.as_double(key), key);
        return true;
    }
    if (key == "bandwidth_mbps") {
        config.link.bytes_per_us =
            require_positive(value.as_double(key), key) * 0.125;
        return true;
    }
    if (key == "shared_uplink") {
        config.link.shared_uplink = value.as_bool(key);
        return true;
    }
    if (key == "cluster_size") {
        // Sweepable hierarchy knob: 0 = flat (topology off), N = contiguous
        // clusters of N (core/topology.hpp). Sweeping [0, N] compares flat
        // and hierarchical deployments of the same roster in one document.
        config.topology.cluster_size = value.as_u64(key);
        return true;
    }
    return false;
}

net::SimTime parse_ms_field(const JsonValue& value, const std::string& key) {
    return net::from_seconds(require_positive(value.as_double(key), key) /
                             1e3);
}

net::LatencyDist parse_latency_dist(const JsonValue& value,
                                    const std::string& context) {
    const JsonValue* dist = value.find("dist");
    if (dist == nullptr) {
        fail(context + ": latency object needs a \"dist\" kind");
    }
    const std::string& kind = dist->as_string(context + ".dist");
    net::LatencyDist out;
    auto allow = [&](const std::string& key,
                     std::initializer_list<const char*> allowed) {
        if (key == "dist") return;
        for (const char* candidate : allowed) {
            if (key == candidate) return;
        }
        fail(context + ": unknown key \"" + key + "\" for dist \"" + kind +
             "\"");
    };
    if (kind == "fixed") {
        out.kind = net::LatencyDist::Kind::fixed;
        for (const auto& [key, field] : value.members(context)) {
            (void)field;
            allow(key, {"ms"});
        }
        const JsonValue* v = value.find("ms");
        if (v == nullptr) fail(context + ": \"fixed\" needs \"ms\"");
        out.base = parse_ms_field(*v, context + ".ms");
    } else if (kind == "uniform") {
        out.kind = net::LatencyDist::Kind::uniform;
        for (const auto& [key, field] : value.members(context)) {
            (void)field;
            allow(key, {"lo_ms", "hi_ms"});
        }
        const JsonValue* lo = value.find("lo_ms");
        const JsonValue* hi = value.find("hi_ms");
        if (lo == nullptr || hi == nullptr) {
            fail(context + ": \"uniform\" needs \"lo_ms\" and \"hi_ms\"");
        }
        out.base = parse_ms_field(*lo, context + ".lo_ms");
        out.spread = parse_ms_field(*hi, context + ".hi_ms");
        if (out.spread < out.base) {
            fail(context + ": \"hi_ms\" must be >= \"lo_ms\"");
        }
    } else if (kind == "exponential") {
        out.kind = net::LatencyDist::Kind::exponential;
        for (const auto& [key, field] : value.members(context)) {
            (void)field;
            allow(key, {"mean_ms"});
        }
        const JsonValue* mean = value.find("mean_ms");
        if (mean == nullptr) {
            fail(context + ": \"exponential\" needs \"mean_ms\"");
        }
        out.base = parse_ms_field(*mean, context + ".mean_ms");
    } else if (kind == "lognormal") {
        out.kind = net::LatencyDist::Kind::lognormal;
        for (const auto& [key, field] : value.members(context)) {
            (void)field;
            allow(key, {"median_ms", "sigma"});
        }
        const JsonValue* median = value.find("median_ms");
        const JsonValue* sigma = value.find("sigma");
        if (median == nullptr || sigma == nullptr) {
            fail(context +
                 ": \"lognormal\" needs \"median_ms\" and \"sigma\"");
        }
        out.base = parse_ms_field(*median, context + ".median_ms");
        out.sigma = sigma->as_double(context + ".sigma");
        if (out.sigma < 0.0) fail(context + ": \"sigma\" must be >= 0");
    } else {
        fail(context + ": unknown latency dist \"" + kind + "\"");
    }
    return out;
}

void parse_network(const JsonValue& value, DecentralizedConfig& config) {
    for (const auto& [key, field] : value.members("network")) {
        if (key == "latency_ms" || key == "jitter" || key == "loss" ||
            key == "bandwidth_mbps" || key == "shared_uplink") {
            (void)apply_scalar_key(config, key, field);
        } else if (key == "default_latency") {
            config.conditions.default_latency =
                parse_latency_dist(field, "network.default_latency");
        } else if (key == "links") {
            for (const JsonValue& entry : field.items("network.links")) {
                net::LinkConditions link;
                bool has_a = false;
                bool has_b = false;
                for (const auto& [lkey, lvalue] :
                     entry.members("network.links entry")) {
                    if (lkey == "a") {
                        link.a = parse_node_id(lvalue, "links.a");
                        has_a = true;
                    } else if (lkey == "b") {
                        link.b = parse_node_id(lvalue, "links.b");
                        has_b = true;
                    } else if (lkey == "latency") {
                        link.latency =
                            parse_latency_dist(lvalue, "links.latency");
                    } else if (lkey == "loss") {
                        link.loss_rate = require_fraction(
                            lvalue.as_double("links.loss"), "links.loss");
                    } else if (lkey == "bandwidth_mbps") {
                        link.bytes_per_us =
                            require_positive(
                                lvalue.as_double("links.bandwidth_mbps"),
                                "links.bandwidth_mbps") *
                            0.125;
                    } else {
                        fail("network.links: unknown key \"" + lkey + "\"");
                    }
                }
                if (!has_a || !has_b) {
                    fail("network.links entries need both \"a\" and "
                         "\"b\"");
                }
                if (link.a == link.b) {
                    fail("network.links: \"a\" and \"b\" must differ");
                }
                // First-match lookup would silently ignore a second
                // override for the same pair.
                for (const net::LinkConditions& existing :
                     config.conditions.links) {
                    if (existing.matches(link.a, link.b)) {
                        fail("network.links: duplicate override for pair "
                             "(" + std::to_string(link.a) + ", " +
                             std::to_string(link.b) + ")");
                    }
                }
                config.conditions.links.push_back(std::move(link));
            }
        } else if (key == "partitions") {
            for (const JsonValue& entry :
                 field.items("network.partitions")) {
                net::PartitionWindow window;
                for (const auto& [pkey, pvalue] :
                     entry.members("network.partitions entry")) {
                    if (pkey == "from_s") {
                        window.from = net::from_seconds(
                            pvalue.as_double("partitions.from_s"));
                    } else if (pkey == "until_s") {
                        window.until = net::from_seconds(
                            pvalue.as_double("partitions.until_s"));
                    } else if (pkey == "groups") {
                        std::vector<net::NodeId> listed;
                        for (const JsonValue& group :
                             pvalue.items("partitions.groups")) {
                            std::vector<net::NodeId> ids;
                            for (const JsonValue& member :
                                 group.items("partitions.groups entry")) {
                                const net::NodeId id =
                                    parse_node_id(member, "group member");
                                // group_of resolves a peer to its first
                                // group; a repeat would silently change
                                // the topology.
                                for (net::NodeId seen : listed) {
                                    if (seen == id) {
                                        fail("partitions.groups: peer " +
                                             std::to_string(id) +
                                             " listed twice");
                                    }
                                }
                                listed.push_back(id);
                                ids.push_back(id);
                            }
                            if (ids.empty()) {
                                fail("partitions.groups: empty group");
                            }
                            window.groups.push_back(std::move(ids));
                        }
                    } else {
                        fail("network.partitions: unknown key \"" + pkey +
                             "\"");
                    }
                }
                if (window.until <= window.from) {
                    fail("network.partitions: \"until_s\" must be > "
                         "\"from_s\"");
                }
                if (window.groups.empty()) {
                    fail("network.partitions: \"groups\" is required");
                }
                config.conditions.partitions.push_back(std::move(window));
            }
        } else if (key == "churn") {
            for (const JsonValue& entry : field.items("network.churn")) {
                net::NodeId peer = 0;
                bool has_peer = false;
                std::vector<std::pair<double, double>> windows;
                for (const auto& [ckey, cvalue] :
                     entry.members("network.churn entry")) {
                    if (ckey == "peer") {
                        peer = parse_node_id(cvalue, "churn.peer");
                        has_peer = true;
                    } else if (ckey == "offline") {
                        for (const JsonValue& span :
                             cvalue.items("churn.offline")) {
                            const auto& pair =
                                span.items("churn.offline window");
                            if (pair.size() != 2) {
                                fail("churn.offline windows are "
                                     "[from_s, until_s] pairs");
                            }
                            windows.emplace_back(
                                pair[0].as_double("churn window start"),
                                pair[1].as_double("churn window end"));
                        }
                    } else {
                        fail("network.churn: unknown key \"" + ckey +
                             "\"");
                    }
                }
                if (!has_peer || windows.empty()) {
                    fail("network.churn entries need \"peer\" and "
                         "\"offline\"");
                }
                for (const auto& [from, until] : windows) {
                    if (until <= from) {
                        fail("churn.offline window end must be > start");
                    }
                    config.conditions.churn.push_back(
                        {peer, net::from_seconds(from),
                         net::from_seconds(until)});
                }
            }
        } else {
            fail("network: unknown key \"" + key + "\"");
        }
    }
}

void parse_data(const JsonValue& value, ml::SyntheticCifarConfig& data) {
    for (const auto& [key, field] : value.members("data")) {
        if (key == "train_per_client") {
            data.train_per_client = field.as_u64(key);
            if (data.train_per_client == 0) {
                fail("\"train_per_client\" must be >= 1");
            }
        } else if (key == "test_per_client") {
            data.test_per_client = field.as_u64(key);
            if (data.test_per_client == 0) {
                fail("\"test_per_client\" must be >= 1");
            }
        } else if (key == "global_test") {
            data.global_test = field.as_u64(key);
        } else if (key == "height") {
            data.height = field.as_u64(key);
            if (data.height == 0) fail("\"height\" must be >= 1");
        } else if (key == "width") {
            data.width = field.as_u64(key);
            if (data.width == 0) fail("\"width\" must be >= 1");
        } else if (key == "alpha") {
            data.dirichlet_alpha = require_positive(field.as_double(key), key);
        } else if (key == "data_seed") {
            data.seed = field.as_u64(key);
        } else {
            fail("data: unknown key \"" + key + "\"");
        }
    }
}

void validate_peer_refs(const ScenarioSpec& spec,
                        const DecentralizedConfig& config) {
    const std::size_t peers = spec.base.peers;
    const auto check = [&](std::size_t index, const std::string& what) {
        if (index >= peers) {
            fail(what + " index " + std::to_string(index) +
                 " is outside the peer set (peers=" +
                 std::to_string(peers) + ")");
        }
    };
    for (std::size_t s : config.stragglers) check(s, "straggler");
    for (std::size_t p : config.poisoned_peers) check(p, "poisoned peer");
    if (config.peer_start_delays.size() > peers) {
        fail("join_delays_s has more entries than peers");
    }
    for (const net::LinkConditions& link : config.conditions.links) {
        check(link.a, "link endpoint");
        check(link.b, "link endpoint");
    }
    for (const net::PartitionWindow& window : config.conditions.partitions) {
        for (const auto& group : window.groups) {
            for (net::NodeId id : group) check(id, "partition member");
        }
    }
    for (const net::OfflineWindow& window : config.conditions.churn) {
        check(window.node, "churn peer");
    }
}

std::string label_value(const JsonValue& value) {
    switch (value.kind()) {
        case JsonValue::Kind::string: return value.as_string("label");
        default: return value.dump();
    }
}

void append_fingerprint(std::string& out, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g;", value);
    out += buffer;
}

/// Reduction of the aggregated rounds of one subset of peers.
struct RecordReduction {
    double final_accuracy = 0.0;  // mean over peers of their last round
    double mean_round_s = 0.0;
    double mean_models_used = 0.0;
    std::uint64_t stale_models_used = 0;
    std::uint64_t timeout_rounds = 0;
    std::uint64_t filtered_models = 0;
    std::uint64_t aggregated_rounds = 0;
};

/// Reduces the records of every peer whose roster index is not in
/// `excluded`; appends each chosen accuracy to `fingerprint` when given.
RecordReduction reduce_records(const DecentralizedResult& result,
                               const std::vector<std::size_t>& excluded,
                               std::string* fingerprint) {
    RecordReduction out;
    std::size_t final_samples = 0;
    double round_s = 0.0;
    double models = 0.0;
    for (std::size_t peer = 0; peer < result.peer_records.size(); ++peer) {
        if (std::find(excluded.begin(), excluded.end(), peer) !=
            excluded.end()) {
            continue;
        }
        const PeerRoundRecord* last = nullptr;
        for (const PeerRoundRecord& record : result.peer_records[peer]) {
            if (record.aggregated_at == 0) continue;
            last = &record;
            round_s +=
                net::to_seconds(record.aggregated_at - record.round_started);
            models += static_cast<double>(record.models_available);
            out.stale_models_used += record.stale_models_used;
            out.filtered_models += record.filtered_out.size();
            if (record.timed_out) ++out.timeout_rounds;
            ++out.aggregated_rounds;
            if (fingerprint != nullptr) {
                append_fingerprint(*fingerprint, record.chosen_accuracy);
            }
        }
        if (last != nullptr) {
            out.final_accuracy += last->chosen_accuracy;
            ++final_samples;
        }
    }
    if (final_samples > 0) {
        out.final_accuracy /= static_cast<double>(final_samples);
    }
    if (out.aggregated_rounds > 0) {
        const auto n = static_cast<double>(out.aggregated_rounds);
        out.mean_round_s = round_s / n;
        out.mean_models_used = models / n;
    }
    return out;
}

/// The Figure 4 summary over every record that scored more than one
/// combination: how often the widest ("full") row was the best one, and
/// the mean accuracy gap between it and the narrowest ("self") row.
std::optional<JsonValue> figure4_json(const DecentralizedResult& result) {
    std::uint64_t full_wins = 0;
    std::uint64_t peer_rounds = 0;
    double full_minus_self = 0.0;
    for (const auto& records : result.peer_records) {
        for (const PeerRoundRecord& record : records) {
            const std::vector<ComboAccuracy>& rows = record.combos;
            if (rows.size() < 2) continue;
            std::size_t best = 0;
            std::size_t full = 0;
            std::size_t self = 0;
            for (std::size_t i = 1; i < rows.size(); ++i) {
                if (rows[i].accuracy > rows[best].accuracy) best = i;
                if (rows[i].combo.size() > rows[full].combo.size()) full = i;
                if (rows[i].combo.size() < rows[self].combo.size()) self = i;
            }
            if (rows[best].combo.size() == rows[full].combo.size()) {
                ++full_wins;
            }
            full_minus_self += rows[full].accuracy - rows[self].accuracy;
            ++peer_rounds;
        }
    }
    if (peer_rounds == 0) return std::nullopt;
    return JsonValue::object()
        .set("full_combo_wins", full_wins)
        .set("peer_rounds", peer_rounds)
        .set("mean_full_minus_self_accuracy",
             full_minus_self / static_cast<double>(peer_rounds));
}

JsonValue point_json(const ScenarioPoint& point,
                     const DecentralizedResult& result) {
    JsonValue overrides = JsonValue::object();
    for (const auto& [key, value] : point.overrides) {
        overrides.set(key, value);
    }

    std::string fingerprint;
    const RecordReduction all = reduce_records(result, {}, &fingerprint);
    std::size_t max_rounds = 0;
    for (const auto& records : result.peer_records) {
        max_rounds = std::max(max_rounds, records.size());
    }
    append_fingerprint(fingerprint, result.mean_round_seconds);
    append_fingerprint(fingerprint, result.mean_wait_seconds);

    JsonValue round_accuracy = JsonValue::array();
    for (std::size_t r = 0; r < max_rounds; ++r) {
        double sum = 0.0;
        std::size_t samples = 0;
        for (const auto& records : result.peer_records) {
            if (r < records.size() && records[r].aggregated_at != 0) {
                sum += records[r].chosen_accuracy;
                ++samples;
            }
        }
        round_accuracy.push(
            JsonValue(samples ? sum / static_cast<double>(samples) : 0.0));
    }

    JsonValue out = JsonValue::object()
        .set("label", point.label)
        .set("overrides", std::move(overrides))
        .set("wait_policy", point.config.wait_policy)
        .set("aggregation", point.config.aggregation)
        .set("seed", point.config.seed)
        .set("final_accuracy", all.final_accuracy)
        .set("round_accuracy", std::move(round_accuracy))
        .set("mean_round_s", result.mean_round_seconds)
        .set("mean_wait_s", result.mean_wait_seconds)
        .set("mean_models_used", all.mean_models_used)
        .set("stale_models_used", all.stale_models_used)
        .set("timeout_rounds", all.timeout_rounds)
        .set("aggregated_rounds", all.aggregated_rounds)
        .set("duration_s", net::to_seconds(result.finished_at))
        .set("chain_height", result.chain_height)
        .set("reorgs", result.total_reorgs)
        .set("messages_sent", result.traffic.messages_sent)
        .set("messages_delivered", result.traffic.messages_delivered)
        .set("messages_dropped", result.traffic.messages_dropped)
        .set("dropped_partition", result.traffic.dropped_partition)
        .set("dropped_offline", result.traffic.dropped_offline)
        .set("bytes_sent", result.traffic.bytes_sent)
        .set("fitness_fingerprint", fingerprint);
    // Appended only for hierarchical points: flat documents stay
    // byte-identical to the pre-topology schema.
    if (point.config.topology.enabled()) {
        const ResolvedTopology topo = resolve_topology(
            point.config.topology, result.peer_records.size());
        out.set("topology",
                JsonValue::object()
                    .set("clusters",
                         static_cast<std::uint64_t>(topo.clusters.size()))
                    .set("max_cluster_size", static_cast<std::uint64_t>(
                                                 topo.max_cluster_size()))
                    .set("top_head",
                         static_cast<std::uint64_t>(topo.top_head)));
    }
    // Honest-peer means leave the stragglers and poisoners out, so the
    // paper's comparisons read the peers the policy is meant to serve.
    std::vector<std::size_t> excluded = point.config.stragglers;
    excluded.insert(excluded.end(), point.config.poisoned_peers.begin(),
                    point.config.poisoned_peers.end());
    if (!excluded.empty()) {
        const RecordReduction honest =
            reduce_records(result, excluded, nullptr);
        out.set("honest",
                JsonValue::object()
                    .set("final_accuracy", honest.final_accuracy)
                    .set("mean_round_s", honest.mean_round_s)
                    .set("mean_models_used", honest.mean_models_used)
                    .set("stale_models_used", honest.stale_models_used)
                    .set("timeout_rounds", honest.timeout_rounds)
                    .set("filtered_models", honest.filtered_models));
    }
    if (std::optional<JsonValue> figure4 = figure4_json(result)) {
        out.set("figure4", std::move(*figure4));
    }
    return out;
}

constexpr std::size_t kMaxGridPoints = 1024;

}  // namespace

ScenarioSpec parse_scenario(std::string_view json_text) {
    const JsonValue doc = JsonValue::parse(json_text);
    ScenarioSpec spec;
    spec.data = paper_data_config();
    spec.base = paper_chain_config();

    // The baseline link parameters are accepted both at top level (where
    // they are sweepable) and inside "network"; giving the same knob in
    // both places would let document order silently pick a winner.
    if (const JsonValue* network = doc.find("network");
        network != nullptr && network->is_object()) {
        for (const char* link_key :
             {"latency_ms", "jitter", "loss", "bandwidth_mbps",
              "shared_uplink"}) {
            if (doc.find(link_key) != nullptr &&
                network->find(link_key) != nullptr) {
                fail(std::string("\"") + link_key +
                     "\" appears both at top level and inside "
                     "\"network\" — set it in one place");
            }
        }
    }

    // Same both-places guard for the sweepable hierarchy knob.
    if (const JsonValue* topology = doc.find("topology");
        topology != nullptr && topology->is_object()) {
        if (doc.find("cluster_size") != nullptr &&
            topology->find("cluster_size") != nullptr) {
            fail("\"cluster_size\" appears both at top level and inside "
                 "\"topology\" — set it in one place");
        }
    }

    const JsonValue* sweep = nullptr;
    const JsonValue* topology_value = nullptr;
    for (const auto& [key, value] : doc.members("scenario document")) {
        if (key == "name") {
            spec.name = value.as_string(key);
            if (spec.name.empty()) fail("\"name\" must not be empty");
            for (char c : spec.name) {
                if ((c < 'a' || c > 'z') && (c < '0' || c > '9') &&
                    c != '_') {
                    fail("\"name\" must match [a-z0-9_]+ (it names the "
                         "output file)");
                }
            }
        } else if (key == "model") {
            spec.model = value.as_string(key);
            if (spec.model != "simple" && spec.model != "effnet") {
                fail("\"model\" must be \"simple\" or \"effnet\"");
            }
        } else if (key == "transport") {
            spec.transport = value.as_string(key);
            if (spec.transport != "sim" && spec.transport != "tcp") {
                fail("\"transport\" must be \"sim\" or \"tcp\"");
            }
        } else if (key == "peers") {
            spec.base.peers = value.as_u64(key);
            // Large rosters are the hierarchical topology's reason to
            // exist; whether a roster is *aggregatable* is a per-strategy
            // width question checked by validate_aggregation_widths.
            if (spec.base.peers < 2 || spec.base.peers > kMaxPeers) {
                fail("\"peers\" must be within [2, " +
                     std::to_string(kMaxPeers) + "]");
            }
        } else if (key == "model_hidden") {
            spec.model_hidden = value.as_u64(key);
            if (spec.model_hidden == 0) {
                fail("\"model_hidden\" must be >= 1");
            }
        } else if (key == "threads") {
            spec.threads = value.as_u64(key);
        } else if (key == "data") {
            parse_data(value, spec.data);
        } else if (key == "network") {
            parse_network(value, spec.base);
        } else if (key == "topology") {
            // Stashed: resolution needs "peers", which may appear later in
            // document order.
            topology_value = &value;
        } else if (key == "sweep") {
            sweep = &value;
        } else if (!apply_scalar_key(spec.base, key, value)) {
            fail("unknown key \"" + key + "\"");
        }
    }
    if (spec.name.empty()) fail("\"name\" is required");

    if (topology_value != nullptr) {
        parse_topology(*topology_value, spec.base.topology);
    }
    // Resolve the base topology (partition validity: disjoint cover,
    // member heads, in-range peers) and check aggregation widths; errors
    // cite the topology object's byte offset.
    try {
        validate_aggregation_widths(spec.base);
    } catch (const Error& e) {
        std::string what = e.what();
        if (what.rfind("scenario: ", 0) == 0) what.erase(0, 10);
        if (topology_value != nullptr) fail_at(*topology_value, what);
        fail(what);
    }

    // Sweep axes parse last so dry-application sees the final base config.
    if (sweep != nullptr) {
        std::size_t grid = 1;
        for (const auto& [key, values] : sweep->members("sweep")) {
            // Duplicate axes are impossible: the JSON parser rejects
            // duplicate object members outright.
            SweepAxis axis;
            axis.key = key;
            axis.values = values.items("sweep." + key);
            if (axis.values.empty()) {
                fail("sweep: axis \"" + key +
                     "\" must be a non-empty array");
            }
            for (const JsonValue& value : axis.values) {
                DecentralizedConfig scratch = spec.base;
                if (!apply_scalar_key(scratch, key, value)) {
                    fail("sweep: \"" + key + "\" is not a sweepable key");
                }
                validate_peer_refs(spec, scratch);
                // Every grid point must both resolve its topology and keep
                // combination searches within width; a bad cluster_size
                // axis value fails here, citing its own byte offset.
                try {
                    validate_aggregation_widths(scratch);
                } catch (const Error& e) {
                    std::string what = e.what();
                    if (what.rfind("scenario: ", 0) == 0) what.erase(0, 10);
                    fail_at(value, "sweep: " + what);
                }
            }
            grid *= axis.values.size();
            if (grid > kMaxGridPoints) {
                fail("sweep: grid exceeds " +
                     std::to_string(kMaxGridPoints) + " points");
            }
            spec.sweep.push_back(std::move(axis));
        }
    }

    // default_latency replaces the fixed latency+jitter model outright, so
    // those knobs (set anywhere, including a sweep axis) would be dead —
    // three identical grid rows with no warning. Reject the combination.
    if (spec.base.conditions.default_latency.has_value()) {
        const auto used = [&](const char* key) {
            if (doc.find(key) != nullptr) return true;
            if (const JsonValue* network = doc.find("network");
                network != nullptr && network->find(key) != nullptr) {
                return true;
            }
            for (const SweepAxis& axis : spec.sweep) {
                if (axis.key == key) return true;
            }
            return false;
        };
        for (const char* key : {"latency_ms", "jitter"}) {
            if (used(key)) {
                fail(std::string("\"") + key +
                     "\" has no effect while \"network.default_latency\" "
                     "is set — remove one of them");
            }
        }
    }

    validate_peer_refs(spec, spec.base);
    spec.data.clients = spec.base.peers;
    return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        fail("cannot open spec file \"" + path + "\"");
    }
    std::string text;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        text.append(buffer, got);
    }
    const bool read_failed = std::ferror(file) != 0;
    std::fclose(file);
    if (read_failed) {
        fail("error reading spec file \"" + path + "\"");
    }
    return parse_scenario(text);
}

std::vector<ScenarioPoint> expand_grid(const ScenarioSpec& spec) {
    std::size_t total = 1;
    for (const SweepAxis& axis : spec.sweep) total *= axis.values.size();

    std::vector<ScenarioPoint> points;
    points.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        ScenarioPoint point;
        point.config = spec.base;
        // Mixed-radix decomposition, last axis fastest, so the grid reads
        // like nested loops over the spec's sweep order.
        std::size_t rem = index;
        std::vector<std::size_t> choice(spec.sweep.size(), 0);
        for (std::size_t a = spec.sweep.size(); a-- > 0;) {
            choice[a] = rem % spec.sweep[a].values.size();
            rem /= spec.sweep[a].values.size();
        }
        for (std::size_t a = 0; a < spec.sweep.size(); ++a) {
            const SweepAxis& axis = spec.sweep[a];
            const JsonValue& value = axis.values[choice[a]];
            (void)apply_scalar_key(point.config, axis.key, value);
            point.overrides.emplace_back(axis.key, value);
            if (!point.label.empty()) point.label += ";";
            point.label += axis.key + "=" + label_value(value);
        }
        if (point.label.empty()) point.label = "base";
        points.push_back(std::move(point));
    }
    return points;
}

JsonValue run_scenario(const ScenarioSpec& spec) {
    ml::SyntheticCifarConfig data_config = spec.data;
    data_config.clients = spec.base.peers;
    const ml::FederatedData data = ml::make_synthetic_cifar(data_config);
    const fl::FlTask task = spec.model == "effnet"
                                ? paper_effnet_task(data)
                                : paper_simple_task(data, spec.model_hidden);
    return run_scenario(spec, task);
}

JsonValue run_scenario(const ScenarioSpec& spec, const fl::FlTask& task) {
    if (spec.transport != "sim") {
        // The grid engine's whole contract is byte-identical output; a
        // wall-clock backend cannot honor it. The soak runner drives those.
        fail("transport \"" + spec.transport +
             "\" is not deterministic — run this spec through "
             "examples/bcfl_soak instead");
    }
    const std::vector<ScenarioPoint> points = expand_grid(spec);
    std::optional<parallel::ThreadCountOverride> width;
    if (spec.threads != 0) width.emplace(spec.threads);

    // One deterministic sim per grid point, fanned out through the engine.
    // Each point forces its inner engine serial (threads pinned by the grid
    // task): nested `parallel::run` calls execute inline, and PR-3's
    // bit-identical guarantee makes serial-inner equal to any other width,
    // so the document below is byte-identical at every BCFL_THREADS.
    std::vector<JsonValue> results(points.size());
    parallel::for_each(points.size(), [&](std::size_t i) {
        DecentralizedConfig config = points[i].config;
        config.threads = 0;  // never install overrides from a worker
        const DecentralizedResult result = run_decentralized(task, config);
        results[i] = point_json(points[i], result);
    });

    JsonValue point_array = JsonValue::array();
    for (JsonValue& result : results) point_array.push(std::move(result));
    return JsonValue::object()
        .set("bench", "scenario_" + spec.name)
        .set("scenario", spec.name)
        .set("model", spec.model)
        .set("peers", static_cast<std::uint64_t>(spec.base.peers))
        .set("rounds", static_cast<std::uint64_t>(spec.base.rounds))
        .set("seed", spec.base.seed)
        .set("grid_points", static_cast<std::uint64_t>(points.size()))
        .set("points", std::move(point_array));
}

void write_scenario_json(const std::string& path, const JsonValue& doc) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        fail("cannot open \"" + path + "\" for writing");
    }
    const std::string text = doc.dump();
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
        std::fputc('\n', file) != EOF;
    // fclose flushes; a full disk can surface only here.
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !closed) {
        fail("error writing \"" + path + "\" (disk full?)");
    }
}

}  // namespace bcfl::core
