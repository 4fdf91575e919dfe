// Property-based tests: randomized inputs against structural invariants.
//
//  * CDR: every randomly generated protocol message round-trips in both
//    byte orders, bit-exactly.
//  * Constraint language: printer/parser inversion (parse(print(ast))
//    evaluates identically to ast), three-valued logic laws (commutativity,
//    De Morgan under definedness), and no-crash on random programs.
//  * Engine: random event soups fire in nondecreasing time order.
//  * k-means: distortion is monotone non-increasing in k.
//  * Checkpoint repository: the accepted-version ledger matches a model.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cdr/cdr.hpp"
#include "ckpt/repository.hpp"
#include "common/rng.hpp"
#include "lupa/kmeans.hpp"
#include "protocol/messages.hpp"
#include "services/constraint.hpp"
#include "sim/engine.hpp"

namespace integrade {
namespace {

// ---------------------------------------------------------------------------
// Random generators
// ---------------------------------------------------------------------------

cdr::Value random_value(Rng& rng, int depth = 0) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth < 2 ? 5 : 4));
  switch (kind) {
    case 0: return cdr::Value();
    case 1: return cdr::Value(rng.bernoulli(0.5));
    case 2: return cdr::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3: return cdr::Value(rng.normal(0, 1e6));
    case 4: {
      std::string s;
      const int len = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
      }
      return cdr::Value(s);
    }
    default: {
      cdr::ValueList list;
      const int len = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < len; ++i) list.push_back(random_value(rng, depth + 1));
      return cdr::Value(std::move(list));
    }
  }
}

std::string random_ident(Rng& rng) {
  static const char* kNames[] = {"cpu", "ram", "os", "fast", "tags", "x", "y"};
  return kNames[rng.uniform_int(0, 6)];
}

protocol::TaskDescriptor random_task(Rng& rng) {
  protocol::TaskDescriptor t;
  t.id = TaskId(rng.next_u64());
  t.app = AppId(rng.next_u64());
  t.kind = static_cast<protocol::AppKind>(rng.uniform_int(0, 2));
  t.binary_platform = random_ident(rng);
  t.work = rng.uniform(0, 1e9);
  t.ram_needed = rng.uniform_int(0, kGiB);
  t.input_bytes = rng.uniform_int(0, kMiB);
  t.output_bytes = rng.uniform_int(0, kMiB);
  t.bsp_rank = static_cast<std::int32_t>(rng.uniform_int(-1, 64));
  t.bsp_processes = static_cast<std::int32_t>(rng.uniform_int(0, 64));
  t.bsp_supersteps = static_cast<std::int32_t>(rng.uniform_int(0, 1000));
  t.bsp_comm_bytes_per_step = rng.uniform_int(0, kMiB);
  t.checkpoint_every = static_cast<std::int32_t>(rng.uniform_int(0, 32));
  t.checkpoint_bytes = rng.uniform_int(0, 16 * kMiB);
  t.checkpoint_period = rng.uniform_int(0, kHour);
  return t;
}

// Random constraint AST (returned as source text via Expr::to_string).
services::ExprPtr random_expr(Rng& rng, int depth) {
  using services::Expr;
  using services::ExprKind;
  auto node = std::make_unique<Expr>();
  const bool leaf = depth >= 3 || rng.bernoulli(0.3);
  if (leaf) {
    if (rng.bernoulli(0.5)) {
      node->kind = ExprKind::kProperty;
      node->property = random_ident(rng);
    } else {
      node->kind = ExprKind::kLiteral;
      switch (rng.uniform_int(0, 3)) {
        case 0: node->literal = cdr::Value(rng.uniform_int(-100, 100)); break;
        case 1: node->literal = cdr::Value(rng.uniform(-10, 10)); break;
        case 2: node->literal = cdr::Value(rng.bernoulli(0.5)); break;
        default: node->literal = cdr::Value(random_ident(rng)); break;
      }
    }
    return node;
  }
  if (rng.bernoulli(0.2)) {
    node->kind = ExprKind::kUnary;
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    node->unary_op = static_cast<services::UnaryOp>(op);
    if (node->unary_op == services::UnaryOp::kExist) {
      node->property = random_ident(rng);
    } else {
      node->lhs = random_expr(rng, depth + 1);
    }
    return node;
  }
  node->kind = ExprKind::kBinary;
  node->binary_op = static_cast<services::BinaryOp>(rng.uniform_int(0, 13));
  node->lhs = random_expr(rng, depth + 1);
  node->rhs = random_expr(rng, depth + 1);
  return node;
}

services::PropertySet random_props(Rng& rng) {
  services::PropertySet props;
  const int n = static_cast<int>(rng.uniform_int(0, 7));
  for (int i = 0; i < n; ++i) {
    props.set(random_ident(rng), random_value(rng, 1));
  }
  return props;
}

// ---------------------------------------------------------------------------
// CDR round-trips
// ---------------------------------------------------------------------------

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST_P(FuzzSeed, RandomValuesRoundTripBothOrders) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const auto value = random_value(rng);
    for (auto order :
         {cdr::ByteOrder::kLittleEndian, cdr::ByteOrder::kBigEndian}) {
      auto decoded =
          cdr::decode_message<cdr::Value>(cdr::encode_message(value, order), order);
      ASSERT_TRUE(decoded.is_ok());
      // NaN-safe comparison: re-encode and compare bytes.
      EXPECT_EQ(cdr::encode_message(decoded.value(), order),
                cdr::encode_message(value, order));
    }
  }
}

TEST_P(FuzzSeed, RandomTasksRoundTrip) {
  Rng rng(GetParam() * 7919);
  for (int i = 0; i < 100; ++i) {
    const auto task = random_task(rng);
    for (auto order :
         {cdr::ByteOrder::kLittleEndian, cdr::ByteOrder::kBigEndian}) {
      auto decoded = cdr::decode_message<protocol::TaskDescriptor>(
          cdr::encode_message(task, order), order);
      ASSERT_TRUE(decoded.is_ok());
      EXPECT_EQ(decoded.value(), task);
    }
  }
}

TEST_P(FuzzSeed, TruncatedMessagesNeverDecodeSuccessfullyWrong) {
  Rng rng(GetParam() * 104729);
  for (int i = 0; i < 50; ++i) {
    const auto task = random_task(rng);
    auto bytes = cdr::encode_message(task);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes.resize(cut);
    auto decoded = cdr::decode_message<protocol::TaskDescriptor>(bytes);
    // Either a clean error, or (for cuts past all fields' bytes) a value —
    // never a crash. Nothing to assert beyond no-UB; exercise it.
    (void)decoded;
  }
}

// ---------------------------------------------------------------------------
// Constraint language properties
// ---------------------------------------------------------------------------

TEST_P(FuzzSeed, PrinterParserInversion) {
  Rng rng(GetParam() * 31337);
  for (int i = 0; i < 120; ++i) {
    const auto ast = random_expr(rng, 0);
    const std::string source = ast->to_string();
    auto reparsed = services::Constraint::parse(source);
    ASSERT_TRUE(reparsed.is_ok()) << source;
    const auto props = random_props(rng);
    const auto direct = services::evaluate(*ast, props);
    const bool direct_match =
        direct.defined && direct.value.is_bool() && direct.value.as_bool();
    EXPECT_EQ(reparsed.value().matches(props), direct_match) << source;
  }
}

TEST_P(FuzzSeed, ThreeValuedLogicLaws) {
  Rng rng(GetParam() * 65537);
  for (int i = 0; i < 120; ++i) {
    const auto a = random_expr(rng, 1);
    const auto b = random_expr(rng, 1);
    const auto props = random_props(rng);
    const std::string sa = '(' + a->to_string() + ')';
    const std::string sb = '(' + b->to_string() + ')';

    auto value_of = [&](const std::string& src) {
      auto parsed = services::Constraint::parse(src);
      if (!parsed.is_ok()) {
        ADD_FAILURE() << src << ": " << parsed.status().to_string();
        return false;
      }
      return parsed.value().matches(props);
    };

    // Kleene AND/OR are commutative.
    EXPECT_EQ(value_of(sa + " and " + sb), value_of(sb + " and " + sa));
    EXPECT_EQ(value_of(sa + " or " + sb), value_of(sb + " or " + sa));
    // De Morgan under matches(): not(a or b) matches => not a and not b
    // matches (both sides undefined together; matches() collapses undefined
    // to false symmetrically).
    EXPECT_EQ(value_of("not (" + sa + " or " + sb + ")"),
              value_of("not " + sa + " and not " + sb));
    // Idempotence.
    EXPECT_EQ(value_of(sa + " and " + sa), value_of(sa));
    EXPECT_EQ(value_of(sa + " or " + sa), value_of(sa));
  }
}

TEST_P(FuzzSeed, RandomProgramsNeverCrashEvaluation) {
  Rng rng(GetParam() * 2654435761ULL);
  for (int i = 0; i < 200; ++i) {
    const auto ast = random_expr(rng, 0);
    const auto props = random_props(rng);
    (void)services::evaluate(*ast, props);  // must not crash / UB
  }
}

// ---------------------------------------------------------------------------
// Engine ordering
// ---------------------------------------------------------------------------

TEST_P(FuzzSeed, EventsAlwaysFireInOrder) {
  Rng rng(GetParam() * 11400714819323198485ULL);
  sim::Engine engine;
  std::vector<SimTime> fired;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 300; ++i) {
    const SimTime when = rng.uniform_int(0, 10'000);
    handles.push_back(
        engine.schedule_at(when, [&fired, &engine] { fired.push_back(engine.now()); }));
  }
  // Cancel a random third.
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  engine.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 200u);
}

// ---------------------------------------------------------------------------
// k-means monotonicity
// ---------------------------------------------------------------------------

TEST_P(FuzzSeed, DistortionNonIncreasingInK) {
  Rng rng(GetParam() * 40503);
  std::vector<lupa::Vector> points;
  for (int i = 0; i < 60; ++i) {
    lupa::Vector p(6);
    for (double& x : p) x = rng.uniform(0, 1);
    points.push_back(std::move(p));
  }
  double previous = std::numeric_limits<double>::max();
  for (std::size_t k = 1; k <= 6; ++k) {
    lupa::KMeansOptions options;
    options.restarts = 6;
    const auto clustering = lupa::kmeans(points, k, rng, options);
    // Allow a hair of slack: restarts make this near-monotone, not exact.
    EXPECT_LE(clustering.distortion, previous * 1.02) << "k=" << k;
    previous = std::min(previous, clustering.distortion);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint repository vs model
// ---------------------------------------------------------------------------

TEST_P(FuzzSeed, RepositoryMatchesLedgerModel) {
  Rng rng(GetParam() * 94906265);
  ckpt::CheckpointRepository repo;
  std::map<std::pair<std::uint64_t, std::int32_t>, std::int64_t> model;
  Bytes model_bytes = 0;

  for (int i = 0; i < 400; ++i) {
    ckpt::Checkpoint c;
    const std::uint64_t app = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    c.app = AppId(app);
    c.rank = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    c.version = rng.uniform_int(0, 50);
    c.state.assign(static_cast<std::size_t>(rng.uniform_int(1, 64)), 0xCD);

    const auto key = std::make_pair(app, c.rank);
    const bool should_accept =
        !model.contains(key) || c.version > model.at(key);
    const Bytes size = static_cast<Bytes>(c.state.size());
    const Status status = repo.store(std::move(c));
    EXPECT_EQ(status.is_ok(), should_accept);
    if (should_accept) {
      model[key] = std::max(model.contains(key) ? model.at(key) : -1,
                            static_cast<std::int64_t>(0));
      model[key] = repo.latest(AppId(app), std::get<1>(key))->version;
      model_bytes += size;
    }
  }
  EXPECT_EQ(repo.total_bytes(), model_bytes);
  for (const auto& [key, version] : model) {
    const auto* latest = repo.latest(AppId(key.first), key.second);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->version, version);
  }
}

}  // namespace
}  // namespace integrade
