// ORB: framing, dispatch, request/reply semantics, timeouts, failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <typeinfo>

#include "ckpt/repository.hpp"
#include "common/rng.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/transport.hpp"
#include "protocol/messages.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace integrade::orb {
namespace {

// A trivial echo servant: "echo" returns its string argument; "add" sums
// two i32s; "boom" raises a system exception.
class EchoServant final : public SkeletonBase {
 public:
  EchoServant() {
    register_raw("echo", [](cdr::Reader& r, cdr::Writer& w) {
      w.write_string(r.read_string());
      return Status::ok();
    });
    register_raw("add", [](cdr::Reader& r, cdr::Writer& w) {
      const auto a = r.read_i32();
      const auto b = r.read_i32();
      w.write_i32(a + b);
      return Status::ok();
    });
    register_raw("boom", [](cdr::Reader&, cdr::Writer&) {
      return Status(ErrorCode::kInternal, "deliberate failure");
    });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:test/Echo:1.0"; }
};

TEST(FrameTest, RequestRoundTrip) {
  RequestHeader header;
  header.request_id = RequestId(42);
  header.object_key = ObjectId(7);
  header.operation = "echo";
  std::vector<std::uint8_t> payload{1, 2, 3};
  auto wire = frame_request(header, payload);

  auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().type, MessageType::kRequest);
  EXPECT_EQ(parsed.value().request.request_id, RequestId(42));
  EXPECT_EQ(parsed.value().request.object_key, ObjectId(7));
  EXPECT_EQ(parsed.value().request.operation, "echo");
  EXPECT_TRUE(parsed.value().request.response_expected);
  EXPECT_EQ(parsed.value().payload, payload);
}

TEST(FrameTest, ReplyRoundTrip) {
  ReplyHeader header;
  header.request_id = RequestId(9);
  header.status = ReplyStatus::kSystemException;
  header.exception_detail = "bad";
  auto wire = frame_reply(header, {});
  auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().type, MessageType::kReply);
  EXPECT_EQ(parsed.value().reply.status, ReplyStatus::kSystemException);
  EXPECT_EQ(parsed.value().reply.exception_detail, "bad");
}

TEST(FrameTest, RejectsBadMagicVersionAndTruncation) {
  RequestHeader header;
  header.request_id = RequestId(1);
  header.object_key = ObjectId(1);
  header.operation = "x";
  auto wire = frame_request(header, {});

  auto bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(parse_frame(bad_magic).is_ok());

  auto bad_version = wire;
  bad_version[4] = 99;
  EXPECT_FALSE(parse_frame(bad_version).is_ok());

  auto truncated = wire;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(parse_frame(truncated).is_ok());

  EXPECT_FALSE(parse_frame({1, 2, 3}).is_ok());
}

TEST(FrameTest, RejectsTrailingBodyBytesAndHeaderFlags) {
  RequestHeader header;
  header.request_id = RequestId(1);
  header.object_key = ObjectId(1);
  header.operation = "x";
  const auto wire = frame_request(header, {1, 2, 3});
  ASSERT_TRUE(parse_frame(wire).is_ok());

  // One body byte after the payload, with the length field covering it.
  auto longer = wire;
  longer.push_back(0);
  longer[11] += 1;  // body length is big-endian; small bodies fit one byte
  EXPECT_FALSE(parse_frame(longer).is_ok());

  auto reserved = wire;
  reserved[7] = 1;
  EXPECT_FALSE(parse_frame(reserved).is_ok());

  // Only 0 (big-endian) and 1 (little-endian) are byte orders.
  auto big = frame_request(header, {1, 2, 3}, cdr::ByteOrder::kBigEndian);
  ASSERT_TRUE(parse_frame(big).is_ok());
  big[5] = 2;
  EXPECT_FALSE(parse_frame(big).is_ok());
}

// The one-buffer frame of a request equals the frame of its separately
// encoded arguments. Operation names of 1 to 8 bytes, with and without a
// trace slot, start the arguments at every offset modulo 8, so an argument
// aligned from anywhere but its own start would show.
template <class Req>
void expect_one_buffer_frames(const Req& request) {
  for (auto order : {cdr::ByteOrder::kLittleEndian, cdr::ByteOrder::kBigEndian}) {
    for (std::size_t op_len = 1; op_len <= 8; ++op_len) {
      for (bool traced : {false, true}) {
        RequestHeader header;
        header.request_id = RequestId(3 + op_len);
        header.object_key = ObjectId(11);
        header.operation = std::string(op_len, 'o');
        header.response_expected = traced;
        header.trace_id = traced ? 0xabcdef : 0;
        header.trace_parent = traced ? 77 : 0;
        FrameWriter frame(header, order);
        cdr::Codec<Req>::encode(frame.payload(), request);
        EXPECT_EQ(std::move(frame).finish(),
                  frame_request(header, cdr::encode_message(request, order), order))
            << typeid(Req).name() << ", operation of " << op_len << " bytes"
            << (traced ? ", traced" : "");
      }
    }
  }
}

TEST(FrameTest, OneBufferFramesEqualFramedEncodedArguments) {
  protocol::NodeLoad load;
  load.node = NodeId(5);
  load.lrm.host = 9;
  load.lrm.key = ObjectId(2);
  load.lrm.type_id = "IDL:integrade/Lrm:1.0";
  load.owner_cpu = 0.25;
  load.free_ram = 3 * kMiB;
  load.shareable = true;
  load.running_tasks = 2;
  load.timestamp = 123456;
  protocol::TaskReport report;
  report.task = TaskId(4);
  report.work_done = 1.5e6;
  report.detail = "done";
  protocol::CkptChunkPut put;
  put.app = AppId(8);
  put.chunks.resize(2);
  put.chunks[0].payload = {1, 2, 3};
  put.chunks[1].raw_size = 7;
  put.chunks[1].payload = {4, 5, 6, 7, 8};
  protocol::ApplicationSpec spec;
  spec.name = "bag";
  spec.tasks.resize(2);
  spec.notify = load.lrm;

  // Every message the middleware sends through orb::oneway or orb::call.
  expect_one_buffer_frames(cdr::Empty{});
  expect_one_buffer_frames(protocol::NodeLoad{});
  expect_one_buffer_frames(load);
  expect_one_buffer_frames(protocol::ApplicationSpec{});
  expect_one_buffer_frames(spec);
  expect_one_buffer_frames(protocol::AppEvent{});
  expect_one_buffer_frames(protocol::BspComputeRequest{});
  expect_one_buffer_frames(protocol::BspChunkDone{});
  expect_one_buffer_frames(protocol::CancelTask{});
  expect_one_buffer_frames(protocol::CancelApp{});
  expect_one_buffer_frames(protocol::ClusterSummary{});
  expect_one_buffer_frames(protocol::RemoteSubmit{});
  expect_one_buffer_frames(protocol::RemoteAdopted{});
  expect_one_buffer_frames(protocol::ReservationRequest{});
  expect_one_buffer_frames(protocol::ExecuteRequest{});
  expect_one_buffer_frames(protocol::TaskReport{});
  expect_one_buffer_frames(report);
  expect_one_buffer_frames(protocol::PreemptRequest{});
  expect_one_buffer_frames(protocol::TaskResync{});
  expect_one_buffer_frames(protocol::SnapshotInstall{});
  expect_one_buffer_frames(protocol::CkptManifestOffer{});
  expect_one_buffer_frames(protocol::CkptChunkPut{});
  expect_one_buffer_frames(put);
  expect_one_buffer_frames(protocol::CkptManifestInstall{});
  expect_one_buffer_frames(protocol::CkptChunkGet{});
  expect_one_buffer_frames(protocol::CkptManifestQuery{});
  expect_one_buffer_frames(protocol::CkptPrune{});
  expect_one_buffer_frames(protocol::CkptDrop{});
  expect_one_buffer_frames(protocol::CkptSaveRequest{});
  expect_one_buffer_frames(protocol::CkptSaveDone{});
  expect_one_buffer_frames(protocol::CkptRestoreRequest{});
  expect_one_buffer_frames(protocol::CkptRestoreDone{});
  expect_one_buffer_frames(protocol::UsagePatternUpload{});
  expect_one_buffer_frames(ckpt::Checkpoint{});
}

class OrbPairFixture : public ::testing::Test {
 protected:
  OrbPairFixture()
      : client(1, transport, nullptr), server(2, transport, nullptr) {
    echo_ref = server.activate(std::make_shared<EchoServant>());
  }

  DirectTransport transport;
  Orb client;
  Orb server;
  ObjectRef echo_ref;
};

TEST_F(OrbPairFixture, InvokeReturnsResultSynchronouslyOnDirectTransport) {
  cdr::Writer args;
  args.write_i32(20);
  args.write_i32(22);
  int result = 0;
  client.invoke(echo_ref, "add", args.take_buffer(),
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ASSERT_TRUE(reply.is_ok());
                  cdr::Reader r(reply.value());
                  result = r.read_i32();
                });
  EXPECT_EQ(result, 42);
}

TEST_F(OrbPairFixture, TypedCallHelpers) {
  bool called = false;
  // Use a protocol message as a typed payload through the generic helper.
  protocol::CancelTask request{TaskId(5)};
  // Register a typed op on a fresh servant.
  class TypedServant final : public SkeletonBase {
   public:
    TypedServant() {
      register_op<protocol::CancelTask, protocol::CancelTask>(
          "identity",
          [](const protocol::CancelTask& c) -> Result<protocol::CancelTask> {
            return c;
          });
    }
    [[nodiscard]] const char* type_id() const override { return "IDL:test/T:1.0"; }
  };
  auto ref = server.activate(std::make_shared<TypedServant>());
  call<protocol::CancelTask, protocol::CancelTask>(
      client, ref, "identity", request,
      [&](Result<protocol::CancelTask> reply) {
        ASSERT_TRUE(reply.is_ok());
        EXPECT_EQ(reply.value().task, TaskId(5));
        called = true;
      });
  EXPECT_TRUE(called);
}

TEST_F(OrbPairFixture, TypedOpRejectsTrailingRequestBytes) {
  class TypedServant final : public SkeletonBase {
   public:
    TypedServant() {
      register_op<protocol::CancelTask, cdr::Empty>(
          "cancel", [](const protocol::CancelTask&) -> Result<cdr::Empty> {
            return cdr::Empty{};
          });
    }
    [[nodiscard]] const char* type_id() const override { return "IDL:test/T:1.0"; }
  };
  auto ref = server.activate(std::make_shared<TypedServant>());
  auto args = cdr::encode_message(protocol::CancelTask{TaskId(5)});
  args.push_back(0);
  Status status;
  client.invoke(ref, "cancel", args, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  // The servant's refusal comes back as a system exception.
  EXPECT_EQ(status.code(), ErrorCode::kInternal);
  EXPECT_NE(status.to_string().find("unmarshalable request"), std::string::npos)
      << status.to_string();
}

TEST_F(OrbPairFixture, UnknownObjectYieldsNotFound) {
  ObjectRef bogus = echo_ref;
  bogus.key = ObjectId(999);
  Status status;
  client.invoke(bogus, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST_F(OrbPairFixture, UnknownOperationYieldsInvalidArgument) {
  Status status;
  client.invoke(echo_ref, "nope", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(OrbPairFixture, ServantExceptionPropagates) {
  Status status;
  client.invoke(echo_ref, "boom", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kInternal);
}

TEST_F(OrbPairFixture, NilReferenceFailsFast) {
  Status status;
  client.invoke(nil_ref(), "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(OrbPairFixture, DeactivatedServantGone) {
  server.deactivate(echo_ref.key);
  Status status;
  client.invoke(echo_ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST_F(OrbPairFixture, BlackholedHostFailsWithoutEngine) {
  transport.set_blackhole(2, true);
  Status status;
  client.invoke(echo_ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  // No engine => fail immediately rather than hanging forever.
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST_F(OrbPairFixture, ShutdownFailsPendingAndStopsReceiving) {
  client.shutdown();
  Status status;
  client.invoke(echo_ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST(OrbSimTransport, TimeoutFiresWhenHostDark) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  auto lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  SimNetworkTransport transport(network);
  Orb client(1, transport, &engine);
  // Host 2 attached to the network but runs no ORB: requests vanish.
  ObjectRef dark;
  dark.host = 2;
  dark.key = ObjectId(1);

  Status status;
  bool completed = false;
  client.invoke(dark, "echo", {},
                [&](Result<std::vector<std::uint8_t>> reply) {
                  completed = true;
                  status = reply.status();
                },
                2 * kSecond);
  engine.run_until(10 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(client.metrics().counter_value("requests_timed_out"), 1);
}

TEST(OrbSimTransport, DestructionDropsPendingCallbacksUnfired) {
  // The owner of a pending callback may die before its ORB (a Cluster tears
  // its components down first), so destruction must not run callbacks.
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  auto lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  SimNetworkTransport transport(network);
  ObjectRef dark;
  dark.host = 2;
  dark.key = ObjectId(1);

  bool fired = false;
  {
    Orb client(1, transport, &engine);
    client.invoke(dark, "echo", {},
                  [&fired](Result<std::vector<std::uint8_t>>) { fired = true; });
  }
  EXPECT_FALSE(fired);
  engine.run_until(10 * kSecond);  // the cancelled deadline never fires
  EXPECT_FALSE(fired);
}

TEST(OrbSimTransport, RequestReplyOverSimulatedNetworkTakesLatency) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  network.set_jitter(0.0);
  auto lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  SimNetworkTransport transport(network);
  Orb client(1, transport, &engine);
  Orb server(2, transport, &engine);
  auto ref = server.activate(std::make_shared<EchoServant>());

  SimTime completed_at = -1;
  cdr::Writer args;
  args.write_string("hi");
  client.invoke(ref, "echo", args.take_buffer(),
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ASSERT_TRUE(reply.is_ok());
                  completed_at = engine.now();
                });
  engine.run();
  // Two one-way latencies at least (200us each by default).
  EXPECT_GE(completed_at, 400);
  EXPECT_LT(completed_at, 10 * kMillisecond);
}

TEST(OrbSimTransport, LateReplyAfterTimeoutIsDiscarded) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  network.set_jitter(0.0);
  sim::SegmentSpec slow;
  slow.latency = 10 * kMillisecond;  // round trip 20ms > 15ms deadline
  auto lan = network.add_segment(slow);
  network.attach(1, lan);
  network.attach(2, lan);
  SimNetworkTransport transport(network);
  Orb client(1, transport, &engine);
  Orb server(2, transport, &engine);
  auto ref = server.activate(std::make_shared<EchoServant>());

  int completions = 0;
  Status status;
  cdr::Writer args;
  args.write_string("hi");
  client.invoke(ref, "echo", args.take_buffer(),
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ++completions;
                  status = reply.status();
                },
                15 * kMillisecond);
  engine.run();
  EXPECT_EQ(completions, 1);  // exactly once, with the timeout
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
}

// Observable side effects: "count" bumps a counter and returns it, so a
// re-executed duplicate is visible as a second increment.
class CountingServant final : public SkeletonBase {
 public:
  CountingServant() {
    register_raw("count", [this](cdr::Reader&, cdr::Writer& w) {
      ++executions;
      w.write_i32(executions);
      return Status::ok();
    });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:test/Count:1.0";
  }
  int executions = 0;
};

TEST(OrbDedup, DuplicatedRequestExecutesOnceAndReplaysReply) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  network.set_jitter(0.0);
  auto lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  sim::FaultInjector faults(engine, network, Rng(4));
  faults.set_duplication(1.0);  // every frame arrives twice
  SimNetworkTransport transport(network);
  Orb client(1, transport, &engine);
  Orb server(2, transport, &engine);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  int completions = 0;
  client.invoke(ref, "count", {},
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ASSERT_TRUE(reply.is_ok());
                  ++completions;
                });
  engine.run();
  EXPECT_EQ(counting->executions, 1);  // at-most-once on the server
  EXPECT_EQ(completions, 1);           // exactly one callback on the client
  EXPECT_EQ(server.metrics().counter_value("duplicate_requests"), 1);
}

TEST(OrbDedup, RetransmissionRecoversDroppedRequest) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  network.set_jitter(0.0);
  auto lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  sim::FaultInjector faults(engine, network, Rng(4));
  SimNetworkTransport transport(network);
  OrbOptions opts;
  opts.request_retries = 2;
  Orb client(1, transport, &engine, opts);
  Orb server(2, transport, &engine);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  // The server is dark for the first send, back before the retransmit.
  faults.crash_endpoint(2);
  engine.schedule_at(500 * kMillisecond,
                     [&faults] { faults.restart_endpoint(2); });

  int completions = 0;
  bool ok = false;
  client.invoke(ref, "count", {},
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ++completions;
                  ok = reply.is_ok();
                },
                30 * kSecond);
  engine.run();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(counting->executions, 1);
  EXPECT_EQ(client.metrics().counter_value("requests_retransmitted"), 1);
}

TEST(OrbDedup, LateDuplicateAfterWindowExpiryIsSafe) {
  DirectTransport transport;
  Orb client(1, transport, nullptr);  // absorbs replies to crafted requests
  Orb server(2, transport, nullptr);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  auto send_raw = [&](std::uint64_t request_id) {
    RequestHeader header;
    header.request_id = RequestId(request_id);
    header.object_key = ref.key;
    header.operation = "count";
    transport.send(1, 2, frame_request(header, {}));
  };

  send_raw(100);
  EXPECT_EQ(counting->executions, 1);
  send_raw(100);  // inside the window: deduped, cached reply replayed
  EXPECT_EQ(counting->executions, 1);
  EXPECT_EQ(server.metrics().counter_value("duplicate_requests"), 1);

  // 256 newer requests fill the 256-entry window and evict request 100.
  for (std::uint64_t id = 101; id <= 356; ++id) send_raw(id);
  EXPECT_EQ(counting->executions, 257);
  // A duplicate arriving after its window slot expired re-executes — the
  // at-most-once guarantee is bounded by the window — but it must be
  // handled as a normal request, not corrupt state or crash.
  send_raw(100);
  EXPECT_EQ(counting->executions, 258);
}

TEST(OrbDedup, DuplicateOnewayIsSuppressed) {
  DirectTransport transport;
  Orb server(2, transport, nullptr);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  RequestHeader header;
  header.request_id = RequestId(500);
  header.object_key = ref.key;
  header.operation = "count";
  header.response_expected = false;
  const auto wire = frame_request(header, {});
  transport.send(1, 2, wire);
  transport.send(1, 2, wire);
  EXPECT_EQ(counting->executions, 1);
  EXPECT_EQ(server.metrics().counter_value("duplicate_requests"), 1);
}

// Transport that delivers synchronously like DirectTransport but records
// every frame, so tests can assert on what actually crossed the wire.
class RecordingTransport final : public Transport {
 public:
  struct Sent {
    NodeAddress from = 0;
    NodeAddress to = 0;
    std::vector<std::uint8_t> frame;
  };

  void bind(NodeAddress self, FrameHandler handler) override {
    handlers_[self] = std::move(handler);
  }
  void unbind(NodeAddress self) override { handlers_.erase(self); }
  void send(NodeAddress from, NodeAddress to,
            std::vector<std::uint8_t> frame) override {
    log.push_back({from, to, frame});
    if (auto it = handlers_.find(to); it != handlers_.end()) {
      it->second(from, log.back().frame);
    }
  }

  [[nodiscard]] std::vector<Sent> frames_to(NodeAddress to) const {
    std::vector<Sent> out;
    for (const auto& sent : log) {
      if (sent.to == to) out.push_back(sent);
    }
    return out;
  }

  std::vector<Sent> log;

 private:
  std::unordered_map<NodeAddress, FrameHandler> handlers_;
};

TEST(OrbDedup, OnewayAndCallFramesEqualFramedEncodedArguments) {
  RecordingTransport transport;
  Orb client(1, transport, nullptr);
  Orb server(2, transport, nullptr);
  const ObjectRef ref = server.activate(std::make_shared<CountingServant>());
  protocol::TaskReport report;
  report.task = TaskId(4);
  report.detail = "odd";

  oneway(client, ref, "count", report);
  call<protocol::TaskReport, cdr::Empty>(client, ref, "count", report,
                                         [](Result<cdr::Empty>) {});
  const auto sent = transport.frames_to(2);
  ASSERT_EQ(sent.size(), 2u);
  for (const auto& request : sent) {
    auto parsed = parse_frame(request.frame);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(request.frame,
              frame_request(parsed.value().request, cdr::encode_message(report)));
  }
}

TEST(OrbDedup, SavedWindowIsTheRecencyOrderOfFreshInserts) {
  // Past 256 entries the window recycles evicted entries; its snapshot must
  // still list them least-recent first, as an erase-and-insert window would.
  RecordingTransport transport;
  Orb server(2, transport, nullptr);
  auto counting = std::make_shared<CountingServant>();
  const ObjectRef ref = server.activate(counting);
  std::list<std::pair<std::pair<NodeAddress, std::uint64_t>,
                      std::vector<std::uint8_t>>>
      model;  // front = most recent
  Rng rng(5);
  for (int i = 0; i < 1500; ++i) {
    const NodeAddress source = static_cast<NodeAddress>(rng.uniform_int(1, 3));
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 400));
    RequestHeader header;
    header.request_id = RequestId(id);
    header.object_key = ref.key;
    header.operation = "count";
    header.response_expected = rng.bernoulli(0.5);
    const std::size_t replies_before = transport.frames_to(source).size();
    transport.send(source, 2, frame_request(header, {}));

    const auto key = std::make_pair(source, id);
    auto it = std::find_if(model.begin(), model.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it != model.end()) {
      model.splice(model.begin(), model, it);  // a duplicate refreshes
      continue;
    }
    if (model.size() >= 256) model.pop_back();
    const auto replies = transport.frames_to(source);
    const bool replied =
        header.response_expected && replies.size() > replies_before;
    model.emplace_front(key, replied ? replies.back().frame
                                     : std::vector<std::uint8_t>{});
  }

  cdr::Writer expected;
  expected.write_u32(static_cast<std::uint32_t>(model.size()));
  for (auto it = model.rbegin(); it != model.rend(); ++it) {
    expected.write_u64(it->first.first);
    expected.write_u64(it->first.second);
    expected.write_octets(it->second);
  }
  cdr::Writer saved;
  server.save_dedup(saved);
  EXPECT_EQ(saved.buffer(), expected.buffer());
}

TEST(OrbDedup, ReplayedOnewayNeverEmitsAReplyFrame) {
  // Contract under test: the dedup window caches an *empty* wire for oneway
  // requests, and the replay path only sends when the duplicate expects a
  // response and a non-empty reply was cached. A replayed oneway must
  // therefore execute nothing AND put nothing on the wire — a spurious
  // reply frame to a oneway would be a protocol violation.
  RecordingTransport transport;
  Orb server(2, transport, nullptr);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  RequestHeader header;
  header.request_id = RequestId(600);
  header.object_key = ref.key;
  header.operation = "count";
  header.response_expected = false;
  const auto wire = frame_request(header, {});
  transport.send(1, 2, wire);
  transport.send(1, 2, wire);  // replayed duplicate
  transport.send(1, 2, wire);  // and again

  EXPECT_EQ(counting->executions, 1);
  EXPECT_EQ(server.metrics().counter_value("duplicate_requests"), 2);
  // Every frame on the wire is one of our requests; the server sent none.
  EXPECT_TRUE(transport.frames_to(1).empty());
  EXPECT_EQ(transport.log.size(), 3u);
}

TEST(OrbDedup, ReplayedTwowayReturnsTheOriginalReplyBytes) {
  // Contract under test: a twoway's reply wire is cached before first send,
  // so a replayed request is answered from the cache — byte-identical to
  // the original reply and without re-executing the servant.
  RecordingTransport transport;
  Orb server(2, transport, nullptr);
  auto counting = std::make_shared<CountingServant>();
  auto ref = server.activate(counting);

  RequestHeader header;
  header.request_id = RequestId(601);
  header.object_key = ref.key;
  header.operation = "count";
  const auto wire = frame_request(header, {});
  transport.send(1, 2, wire);
  transport.send(1, 2, wire);  // replayed duplicate

  EXPECT_EQ(counting->executions, 1);
  EXPECT_EQ(server.metrics().counter_value("duplicate_requests"), 1);
  const auto replies = transport.frames_to(1);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].frame, replies[1].frame);  // byte-identical replay
  // And it really is the first execution's reply: counter payload reads 1.
  auto parsed = parse_frame(replies[1].frame);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed.value().type, MessageType::kReply);
  EXPECT_EQ(parsed.value().reply.request_id, RequestId(601));
  cdr::Reader reader(parsed.value().payload);
  EXPECT_EQ(reader.read_i32(), 1);
}

}  // namespace
}  // namespace integrade::orb
