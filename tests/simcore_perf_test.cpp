// Guardrails for the simulator hot-path overhaul (zero-clone fan-out, tag
// dispatch, calendar event queue, lazy trace text):
//
//  * golden-trace determinism — the pinned scenarios must serialize
//    byte-identically to the artifacts in tests/golden/ (recorded before
//    the overhaul), proving the calendar queue and shared payloads did not
//    move a single event; the artifacts also parse back and re-serialize
//    byte-identically, and a mistyped key in one fails the load;
//  * payload aliasing — a fan-out constructs exactly one message instance
//    and every recipient sees the same object; duplication faults add
//    refs, not copies;
//  * calendar ordering — timers beyond the queue's 1024-tick bucket window
//    fire in tick order through the overflow heap and cursor jumps;
//  * lazy rendering — Message::describe() runs only for observers that
//    opted in via ScheduleObserver::wantsMessageText();
//  * message handles — copy, move and base conversion share one payload,
//    a copy-constructed payload starts unshared, the last handle deletes;
//  * queue teardown — a queue destroyed with events still pending returns
//    its ring to the thread arena fully reset.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.hpp"
#include "check/replay.hpp"
#include "compose/registry.hpp"
#include "compose/run.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/scheduler.hpp"

namespace ooc {
namespace {

// ---------------------------------------------------------------------------
// Golden-trace determinism

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden artifact: " << path
                         << " (regenerate with tools/golden_gen)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenTrace, RecordedRunsAreByteIdentical) {
  const auto fixtures = check::goldenFixtures();
  // Six pre-policy fixtures (pinned under the lockstep scheduler) plus the
  // non-lockstep skew witness compose-ooo-skew-n5.
  ASSERT_GE(fixtures.size(), 7u);
  for (const auto& fixture : fixtures) {
    const std::string expected =
        readFile(std::string(OOC_GOLDEN_DIR "/") + fixture.name + ".golden");
    const std::string actual = check::renderGolden(fixture);
    // EQ on the whole string (not a line diff): the guarantee is bytes.
    EXPECT_EQ(actual, expected)
        << "schedule or serialization drift in fixture " << fixture.name;
  }
}

// The parse direction: every artifact loads through the counterexample
// reader and re-serializes to the same bytes, so no field is lost or
// re-spelled on the way in.
TEST(GoldenTrace, ArtifactsRoundTripThroughTheParser) {
  const auto fixtures = check::goldenFixtures();
  ASSERT_GE(fixtures.size(), 7u);
  for (const auto& fixture : fixtures) {
    const std::string text =
        readFile(std::string(OOC_GOLDEN_DIR "/") + fixture.name + ".golden");
    EXPECT_EQ(check::serializeCounterexample(check::parseCounterexample(text)),
              text)
        << "parse round-trip drift in fixture " << fixture.name;
  }
}

// A mistyped key must not load with the field left at its default: the
// recorded schedule would still replay bit-identically and hide the typo.
TEST(GoldenTrace, MistypedKeyFailsTheLoad) {
  std::string text =
      readFile(std::string(OOC_GOLDEN_DIR "/") + "compose-timer-n5.golden");
  const std::string line = "max-delay=10\n";
  const auto at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, line.size(), "max-delya=3\n");
  try {
    (void)check::parseCounterexample(text);
    ADD_FAILURE() << "mistyped golden loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown key 'max-delya'"),
              std::string::npos)
        << error.what();
  }
}

TEST(GoldenTrace, ParallelWorkersRenderByteIdenticalGoldens) {
  // Same artifacts, rendered through the experiment scheduler's worker
  // pool: per-worker arena reuse (bucket rings, timer tables, trace
  // buffers recycled across runs) must not move a single byte relative to
  // the sequential renders above.
  const auto fixtures = check::goldenFixtures();
  ASSERT_GE(fixtures.size(), 7u);
  std::vector<std::string> rendered(fixtures.size());
  sweep::Options options;
  options.threads = fixtures.size();
  sweep::parallelFor(
      fixtures.size(),
      [&](std::size_t index, sweep::Control&) {
        rendered[index] = check::renderGolden(fixtures[index]);
      },
      options);
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const std::string expected =
        readFile(std::string(OOC_GOLDEN_DIR "/") + fixtures[i].name +
                 ".golden");
    EXPECT_EQ(rendered[i], expected)
        << "parallel render drift in fixture " << fixtures[i].name;
  }
}

// ---------------------------------------------------------------------------
// Payload aliasing

int countedConstructed = 0;
int countedDescribed = 0;

struct CountedMsg final : MessageBase<CountedMsg> {
  explicit CountedMsg(int v = 0) : v(v) { ++countedConstructed; }
  CountedMsg(const CountedMsg& other) : MessageBase(other), v(other.v) {
    ++countedConstructed;
  }
  int v;
  std::string describe() const override {
    ++countedDescribed;
    return "counted(" + std::to_string(v) + ")";
  }
};

/// Records the identity of every delivered payload.
class AddressRecorder : public Process {
 public:
  void onMessage(ProcessId, const Message& message) override {
    addresses.push_back(&message);
  }
  std::vector<const Message*> addresses;
};

class FanoutSender final : public AddressRecorder {
 public:
  void onStart() override { ctx().fanout(makeMessage<CountedMsg>(7)); }
};

TEST(PayloadSharing, FanoutConstructsOnceAndAliasesEveryDelivery) {
  countedConstructed = 0;
  constexpr std::size_t kN = 8;
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<AddressRecorder*> procs;
  procs.push_back(new FanoutSender);
  sim.addProcess(std::unique_ptr<Process>(procs.back()));
  for (std::size_t i = 1; i < kN; ++i) {
    procs.push_back(new AddressRecorder);
    sim.addProcess(std::unique_ptr<Process>(procs.back()));
  }
  sim.run();

  EXPECT_EQ(countedConstructed, 1);  // one instance for the whole broadcast
  EXPECT_EQ(sim.messagesSent(), kN);
  EXPECT_EQ(sim.messagesDelivered(), kN);
  const Message* shared = nullptr;
  for (AddressRecorder* proc : procs) {
    ASSERT_EQ(proc->addresses.size(), 1u);
    if (shared == nullptr) shared = proc->addresses.front();
    EXPECT_EQ(proc->addresses.front(), shared)
        << "a recipient saw a copy instead of the shared payload";
  }
}

class DuplicatedSender final : public AddressRecorder {
 public:
  void onStart() override {
    for (int i = 0; i < 10; ++i) ctx().post(1, makeMessage<CountedMsg>(i));
  }
};

TEST(PayloadSharing, DuplicationFaultsAddRefsNotCopies) {
  countedConstructed = 0;
  UniformDelayNetwork::Options network;
  network.minDelay = 1;
  network.maxDelay = 3;
  network.duplicateProbability = 1.0;  // every send is duplicated
  Simulator sim(SimConfig{},
                std::make_unique<UniformDelayNetwork>(network));
  sim.addProcess(std::make_unique<DuplicatedSender>());
  auto* receiver = new AddressRecorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));
  sim.run();

  EXPECT_EQ(countedConstructed, 10);  // one instance per post, none per copy
  EXPECT_GT(sim.messagesDuplicated(), 0u);
  EXPECT_EQ(receiver->addresses.size(),
            10u + static_cast<std::size_t>(sim.messagesDuplicated()));
}

TEST(PayloadSharing, InTreeCompositionsNeverClonePayloads) {
  // Post/fanout is the only message API and Message has no deep copy, so
  // payloads are never copied. What this checks is that the whole valid
  // detector × driver cross-product runs on that API to a safe end,
  // exchanging messages.
  auto& reg = compose::registry();
  for (const std::string& detector : reg.detectorNames()) {
    for (const std::string& driver : reg.driverNames()) {
      if (reg.validatePairing(detector, driver)) continue;  // rejected
      compose::Composition composition;
      composition.detector = detector;
      composition.driver = driver;
      composition.maxRounds = 200;
      composition.maxTicks = 200'000;
      // Oracle-consuming drivers get the strongest oracle their
      // requirement admits — the oracle is a pure model consulted by the
      // driver.
      const auto requirement = reg.driver(driver).capability.oracle;
      if (requirement != compose::OracleRequirement::kNone) {
        composition.oracle =
            requirement == compose::OracleRequirement::kPerfect ? "perfect-p"
                                                                : "omega";
        if (composition.oracle == "omega") {
          composition.oracleKnobs.stabilizeAt = 40;
          composition.oracleKnobs.noise = 0.25;
        }
      }
      const auto& capability = reg.detector(detector).capability;
      if (capability.faultModel == compose::FaultModel::kByzantine) {
        const bool lockstep =
            capability.mode == compose::InvocationMode::kLockstep;
        composition.n = lockstep ? (capability.tDivisor == 3 ? 7 : 9) : 11;
        composition.byzantineCount = 2;
      } else {
        composition.n = 5;
        composition.inputs = {0, 1, 0, 1, 1};
      }
      const auto result = compose::runComposition(composition);
      EXPECT_GT(result.messagesByCorrect, 0u) << detector << "+" << driver;
      EXPECT_FALSE(result.agreementViolated) << detector << "+" << driver;
    }
  }
}

TEST(PayloadSharing, NonLockstepSchedulersNeverClonePayloads) {
  // The roundless policies change WHO consumes a payload (buffered
  // replays, loose drivers, wakeup-deferred successors) but never copy it:
  // buffering shares the envelope's payload and a detached drive keeps the
  // original object. Both skewed schedulers must still decide.
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kEventDriven, SchedulingPolicy::kOooDriver}) {
    compose::Composition composition;
    composition.detector = "benor-vac";
    composition.driver = "lottery";
    composition.scheduler = policy;
    composition.n = 5;
    composition.inputs = {0, 1, 0, 1, 1};
    composition.maxDelay = 15;
    composition.maxRounds = 200;
    composition.maxTicks = 200'000;
    const auto result = compose::runComposition(composition);
    EXPECT_TRUE(result.allDecided) << toString(policy);
  }
}

// ---------------------------------------------------------------------------
// Calendar-queue ordering beyond the bucket window

class LongTimerProcess final : public Process {
 public:
  void onStart() override {
    // Mix of in-window (< 1024 ticks ahead), boundary, and far-overflow
    // delays, armed out of order; several land beyond the ring so they
    // route through the overflow heap and cursor jumps across empty
    // stretches.
    for (const Tick delay : {Tick{2000}, Tick{1}, Tick{5000}, Tick{1024},
                             Tick{1500}, Tick{1023}, Tick{3000}}) {
      delayOf_[setTimerPublic(delay)] = delay;
    }
  }
  void onMessage(ProcessId, const Message&) override {}
  void onTimer(TimerId id) override {
    firedAt.emplace_back(ctx().now(), delayOf_.at(id));
  }

  std::vector<std::pair<Tick, Tick>> firedAt;  // (tick, armed delay)

 private:
  TimerId setTimerPublic(Tick delay) { return ctx().setTimer(delay); }
  std::map<TimerId, Tick> delayOf_;
};

TEST(CalendarQueue, OverflowTimersFireInTickOrder) {
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  auto* proc = new LongTimerProcess;
  sim.addProcess(std::unique_ptr<Process>(proc));
  sim.run();

  const std::vector<std::pair<Tick, Tick>> expected = {
      {1, 1},       {1023, 1023}, {1024, 1024}, {1500, 1500},
      {2000, 2000}, {3000, 3000}, {5000, 5000}};
  EXPECT_EQ(proc->firedAt, expected);
  EXPECT_EQ(sim.timersFired(), 7u);
  EXPECT_EQ(sim.pendingTimerCount(), 0u);
}

// ---------------------------------------------------------------------------
// Lazy trace text

class TextCollector final : public ScheduleObserver {
 public:
  explicit TextCollector(bool wants) : wants_(wants) {}
  void onEvent(const TraceEvent&) override {}
  bool wantsMessageText() const noexcept override { return wants_; }
  void onMessageText(const std::string& text) override {
    texts.push_back(text);
  }
  std::vector<std::string> texts;

 private:
  bool wants_;
};

TEST(LazyDescribe, SkippedUnlessAnObserverOptsIn) {
  countedDescribed = 0;
  {
    Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
    sim.addProcess(std::make_unique<FanoutSender>());
    sim.addProcess(std::make_unique<AddressRecorder>());
    sim.run();  // no observer at all
    EXPECT_EQ(sim.messagesDelivered(), 2u);
  }
  EXPECT_EQ(countedDescribed, 0);

  {
    Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
    sim.addProcess(std::make_unique<FanoutSender>());
    sim.addProcess(std::make_unique<AddressRecorder>());
    TraceRecorder recorder;  // records schedules but never wants text
    sim.setScheduleObserver(&recorder);
    sim.run();
    EXPECT_EQ(sim.messagesDelivered(), 2u);
  }
  EXPECT_EQ(countedDescribed, 0);

  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  sim.addProcess(std::make_unique<FanoutSender>());
  sim.addProcess(std::make_unique<AddressRecorder>());
  TextCollector collector(/*wants=*/true);
  sim.setScheduleObserver(&collector);
  sim.run();
  EXPECT_EQ(countedDescribed, 2);  // once per delivery, shared payload or not
  ASSERT_EQ(collector.texts.size(), 2u);
  EXPECT_EQ(collector.texts.front(), "counted(7)");
}

// ---------------------------------------------------------------------------
// Tag dispatch sanity

struct OtherMsg final : MessageBase<OtherMsg> {
  std::string describe() const override { return "other"; }
};

TEST(TagDispatch, AsMatchesExactConcreteTypeOnly) {
  const CountedMsg counted(1);
  const OtherMsg other;
  const Message& asBaseCounted = counted;
  const Message& asBaseOther = other;
  EXPECT_NE(asBaseCounted.as<CountedMsg>(), nullptr);
  EXPECT_EQ(asBaseCounted.as<OtherMsg>(), nullptr);
  EXPECT_NE(asBaseOther.as<OtherMsg>(), nullptr);
  EXPECT_EQ(asBaseOther.as<CountedMsg>(), nullptr);
  EXPECT_NE(tagOf<CountedMsg>(), tagOf<OtherMsg>());
}

// ---------------------------------------------------------------------------
// Message handles: intrusive, non-atomic, thread-confined

int lifeDestroyed = 0;

struct LifeMsg final : MessageBase<LifeMsg> {
  explicit LifeMsg(int v) : v(v) {}
  LifeMsg(const LifeMsg&) = default;
  ~LifeMsg() override { ++lifeDestroyed; }
  int v;
  std::string describe() const override { return "life"; }
};

static_assert(sizeof(MessagePtr) == sizeof(void*),
              "a message handle is one pointer");
static_assert(sizeof(SimEvent) <= 56, "SimEvent regrew past 56 bytes");

TEST(MessageHandle, CopyMoveAndBaseConversionShareOnePayload) {
  lifeDestroyed = 0;
  {
    MessageHandle<const LifeMsg> derived = makeMessage<LifeMsg>(5);
    EXPECT_EQ(derived.useCount(), 1u);

    MessagePtr base = derived;  // derived-to-base copy adds a reference
    EXPECT_EQ(base.get(), derived.get());
    EXPECT_EQ(derived.useCount(), 2u);

    MessagePtr moved = std::move(base);  // a move transfers it
    EXPECT_FALSE(base);
    EXPECT_EQ(base.useCount(), 0u);
    EXPECT_EQ(moved.useCount(), 2u);

    MessagePtr copy = moved;
    EXPECT_EQ(copy.useCount(), 3u);
    const MessagePtr& same = copy;
    copy = same;  // self-assignment keeps the reference
    EXPECT_EQ(copy.useCount(), 3u);
    copy = nullptr;
    EXPECT_EQ(moved.useCount(), 2u);

    MessagePtr fromDerived = std::move(derived);  // derived-to-base move
    EXPECT_FALSE(derived);
    EXPECT_EQ(fromDerived.useCount(), 2u);
    ASSERT_NE(fromDerived->as<LifeMsg>(), nullptr);
    EXPECT_EQ(fromDerived->as<LifeMsg>()->v, 5);
    EXPECT_EQ(&*fromDerived, moved.get());
    EXPECT_EQ(lifeDestroyed, 0);
  }
  EXPECT_EQ(lifeDestroyed, 1);  // the last handle deleted it, once
}

// A receiver sees a payload by reference; share() turns that reference
// back into a handle, which keeps the payload alive past its sender's
// handles. A payload no handle owns is refused rather than adopted.
TEST(MessageHandle, ShareRetainsAHandleOwnedPayload) {
  lifeDestroyed = 0;
  {
    MessageHandle<const LifeMsg> kept;
    {
      const MessagePtr sent = makeMessage<LifeMsg>(7);
      const LifeMsg& seen = *sent->as<LifeMsg>();
      kept = MessageHandle<const LifeMsg>::share(seen);
      EXPECT_EQ(sent.useCount(), 2u);
      EXPECT_EQ(kept.get(), &seen);
    }
    EXPECT_EQ(kept.useCount(), 1u);
    EXPECT_EQ(kept->v, 7);
    EXPECT_EQ(lifeDestroyed, 0);
  }
  EXPECT_EQ(lifeDestroyed, 1);

  const LifeMsg onStack(3);
  EXPECT_THROW((void)MessageHandle<const LifeMsg>::share(onStack),
               std::logic_error);
}

TEST(MessageHandle, CopyConstructedPayloadStartsUnshared) {
  lifeDestroyed = 0;
  const auto original = makeMessage<LifeMsg>(1);
  const MessagePtr alias = original;
  ASSERT_EQ(original.useCount(), 2u);
  // Copy-constructing a payload never copies the source's count.
  auto copy = makeMessage<LifeMsg>(*original);
  EXPECT_EQ(copy.useCount(), 1u);
  EXPECT_EQ(original.useCount(), 2u);
  EXPECT_NE(copy.get(), original.get());
  copy.reset();
  EXPECT_FALSE(copy);
  EXPECT_EQ(lifeDestroyed, 1);
  EXPECT_EQ(original.useCount(), 2u);  // the source is untouched
}

class LifeFanout final : public Process {
 public:
  void onStart() override {
    if (ctx().self() == 0) ctx().fanout(makeMessage<LifeMsg>(3));
  }
  void onMessage(ProcessId, const Message&) override {}
};

TEST(MessageHandle, FanoutPayloadDiesOnceAfterItsLastDelivery) {
  lifeDestroyed = 0;
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  for (int i = 0; i < 6; ++i) sim.addProcess(std::make_unique<LifeFanout>());
  sim.run();
  EXPECT_EQ(sim.messagesDelivered(), 6u);
  EXPECT_EQ(lifeDestroyed, 1);
}

// ---------------------------------------------------------------------------
// Queue teardown resets only the touched buckets

SimEvent eventAt(Tick at, MessagePtr message = nullptr) {
  SimEvent event;
  event.at = at;
  event.message = std::move(message);
  return event;
}

TEST(CalendarQueue, TeardownLeavesTheArenaRingClean) {
  EventQueue::drainThreadArena();
  lifeDestroyed = 0;
  {
    EventQueue queue;
    for (const Tick at : {Tick{3}, Tick{3}, Tick{3}, Tick{700}, Tick{1020}})
      queue.push(eventAt(at, makeMessage<LifeMsg>(0)));
    for (const Tick at : {Tick{5000}, Tick{9000}})  // overflow heap
      queue.push(eventAt(at, makeMessage<LifeMsg>(0)));
    // Pop part of tick 3: its bucket keeps a nonzero drain position.
    SimEvent out;
    ASSERT_TRUE(queue.pop(out));
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.at, 3u);
    out = SimEvent{};
    EXPECT_EQ(queue.size(), 5u);
  }
  // Every payload still queued died with the queue.
  EXPECT_EQ(lifeDestroyed, 7);
  ASSERT_EQ(EventQueue::threadArenaSize(), 1u);
  ASSERT_TRUE(EventQueue::threadArenaClean());

  // The next queue takes that ring and starts empty: every bucket the old
  // queue touched drains in order, nothing stale leaks in.
  EventQueue next;
  EXPECT_EQ(EventQueue::threadArenaSize(), 0u);
  SimEvent out;
  EXPECT_FALSE(next.pop(out));
  for (const Tick at : {Tick{3}, Tick{700}, Tick{1020}, Tick{3}, Tick{5000}})
    next.push(eventAt(at));
  std::vector<Tick> popped;
  while (next.pop(out)) popped.push_back(out.at);
  EXPECT_EQ(popped, (std::vector<Tick>{3, 3, 700, 1020, 5000}));
  EXPECT_TRUE(next.empty());
}

}  // namespace
}  // namespace ooc
