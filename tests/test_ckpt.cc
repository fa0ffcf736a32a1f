/**
 * @file
 * Checkpoint/restore tests: bit-exact resume.
 *
 * The contract under test: a run restored from a checkpoint reproduces the
 * uninterrupted run's per-cycle state hashes and final statistics exactly,
 * for every power-gating design, with the fault campaign and the E2E
 * resilience layer on or off. Plus the rejection paths -- wrong format
 * version, wrong configuration fingerprint, corrupt payload -- which must
 * fail with a diagnosis instead of loading garbage or panicking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/state_serializer.hh"
#include "fault/e2e_protocol.hh"
#include "network/noc_system.hh"
#include "temp_dir.hh"
#include "traffic/parsec_workload.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

NocConfig
ckptConfig(PgDesign design, bool faults = false)
{
    NocConfig cfg;
    cfg.design = design;
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.e2e = true;
        cfg.fault.flitCorruptRate = 1e-4;
        cfg.fault.flitDropRate = 1e-4;
        cfg.fault.creditLeakRate = 5e-5;
        cfg.verify.interval = 64;
        cfg.verify.policy = AuditPolicy::kRecover;
    }
    return cfg;
}

/** Stats fields compared between a golden and a resumed run. */
struct StatsFingerprint
{
    std::uint64_t created, delivered, failed, injected, ejected;
    std::uint64_t traversals, wakeups;
    double latency, hops;

    bool operator==(const StatsFingerprint &o) const
    {
        return created == o.created && delivered == o.delivered &&
               failed == o.failed && injected == o.injected &&
               ejected == o.ejected && traversals == o.traversals &&
               wakeups == o.wakeups && latency == o.latency &&
               hops == o.hops;
    }
};

StatsFingerprint
fingerprint(const NocSystem &sys)
{
    const NetworkStats &st = sys.stats();
    return {st.packetsCreated(), st.packetsDelivered(),
            st.packetsFailed(), st.flitsInjected(), st.flitsEjected(),
            st.totals().linkTraversals, st.totalWakeups(),
            st.avgPacketLatency(), st.avgHops()};
}

/**
 * Save sys1 mid-run, restore into a freshly built twin, then march both
 * in lockstep asserting per-cycle hash equality.
 */
void
expectLockstepAfterRestore(const NocConfig &cfg, TrafficPattern pattern,
                           Cycle warm, Cycle lockstep)
{
    NocSystem sys1(cfg);
    SyntheticTraffic t1(pattern, 0.08, 7);
    sys1.setWorkload(&t1);
    sys1.run(warm);

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    NocSystem sys2(cfg);
    SyntheticTraffic t2(pattern, 0.08, 7);
    sys2.setWorkload(&t2);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_TRUE(load.exhausted());

    ASSERT_EQ(sys1.now(), sys2.now());
    ASSERT_EQ(sys1.stateHash(), sys2.stateHash());
    for (Cycle i = 0; i < lockstep; ++i) {
        sys1.run(1);
        sys2.run(1);
        ASSERT_EQ(sys1.stateHash(), sys2.stateHash())
            << "state diverged " << (i + 1) << " cycles after restore "
            << "(design " << pgDesignName(cfg.design) << ")";
    }
    EXPECT_EQ(fingerprint(sys1), fingerprint(sys2));
}

TEST(Checkpoint, RoundTripLockstepAllDesigns)
{
    for (int d = 0; d < 4; ++d) {
        expectLockstepAfterRestore(
            ckptConfig(static_cast<PgDesign>(d)),
            TrafficPattern::kUniformRandom, 600, 250);
    }
}

TEST(Checkpoint, RoundTripLockstepTransposePattern)
{
    expectLockstepAfterRestore(ckptConfig(PgDesign::kNord),
                               TrafficPattern::kTranspose, 600, 250);
}

TEST(Checkpoint, RoundTripLockstepWithFaultsAndE2e)
{
    for (PgDesign d : {PgDesign::kNord, PgDesign::kConvPg}) {
        expectLockstepAfterRestore(ckptConfig(d, true),
                                   TrafficPattern::kUniformRandom, 800,
                                   300);
    }
}

TEST(Checkpoint, MidDrainCheckpointCompletesIdentically)
{
    // Checkpoint after traffic stops but before the network drains, while
    // flits are still in flight: the restored run must drain to the same
    // cycle with the same final statistics.
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    NocSystem sys1(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.10, 3);
    sys1.setWorkload(&t1);
    sys1.run(500);
    sys1.setWorkload(nullptr);
    sys1.run(5);  // mid-drain: queues are busy emptying
    ASSERT_FALSE(sys1.drained());

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    NocSystem sys2(cfg);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_TRUE(load.exhausted());

    EXPECT_TRUE(sys1.runToCompletion(100000));
    EXPECT_TRUE(sys2.runToCompletion(100000));
    EXPECT_EQ(sys1.now(), sys2.now());
    EXPECT_EQ(sys1.stateHash(), sys2.stateHash());
    EXPECT_EQ(fingerprint(sys1), fingerprint(sys2));
    sys2.checkInvariants();
}

TEST(Checkpoint, ResumeFromFileMatchesGoldenRun)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNord, true);
    const Cycle warm = 700;
    const Cycle rest = 900;

    // Golden: one uninterrupted run.
    NocSystem golden(cfg);
    SyntheticTraffic tg(TrafficPattern::kUniformRandom, 0.08, 7);
    golden.setWorkload(&tg);
    golden.run(warm + rest);

    // Interrupted: run to the checkpoint, write it, then resume in a
    // process-fresh system (new NocSystem + new workload objects).
    const std::string path = testTempPath("nord_resume.ckpt");
    {
        NocSystem sys(cfg);
        SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
        sys.setWorkload(&t);
        sys.run(warm);
        std::string err;
        ASSERT_TRUE(sys.saveCheckpoint(path, {1, 2, 3, 4}, &err)) << err;
    }
    NocSystem resumed(cfg);
    SyntheticTraffic tr(TrafficPattern::kUniformRandom, 0.08, 7);
    resumed.setWorkload(&tr);
    std::array<std::uint64_t, 4> user{};
    std::string err;
    ASSERT_TRUE(resumed.loadCheckpoint(path, &user, &err)) << err;
    EXPECT_EQ(user, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
    EXPECT_EQ(resumed.now(), warm);
    resumed.run(rest);

    EXPECT_EQ(golden.now(), resumed.now());
    EXPECT_EQ(golden.stateHash(), resumed.stateHash());
    EXPECT_EQ(fingerprint(golden), fingerprint(resumed));
    std::remove(path.c_str());
}

TEST(Checkpoint, ParsecWorkloadRoundTrip)
{
    // Closed-loop workload: per-core scripts, RNGs and pending replies
    // must all restore, or issue timing diverges immediately.
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    ParsecParams params = parsecByName("blackscholes");
    params.transactionsPerCore = 40;

    NocSystem sys1(cfg);
    ParsecWorkload w1(params, 5);
    sys1.setWorkload(&w1);
    sys1.run(1500);

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    NocSystem sys2(cfg);
    ParsecWorkload w2(params, 5);
    sys2.setWorkload(&w2);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_TRUE(load.exhausted());

    EXPECT_EQ(sys1.runToCompletion(2000000),
              sys2.runToCompletion(2000000));
    EXPECT_EQ(sys1.now(), sys2.now());
    EXPECT_EQ(w1.completedTransactions(), w2.completedTransactions());
    EXPECT_EQ(fingerprint(sys1), fingerprint(sys2));
}

TEST(Checkpoint, VersionMismatchRejected)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNoPg);
    NocSystem sys(cfg);
    const std::string path = testTempPath("nord_version.ckpt");
    std::string err;
    ASSERT_TRUE(sys.saveCheckpoint(path, {}, &err)) << err;

    // Bump the on-disk format version (byte 4, after the 32-bit magic).
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4, SEEK_SET);
    const std::uint32_t bogus = kCheckpointVersion + 1;
    ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
    std::fclose(f);

    NocSystem fresh(cfg);
    EXPECT_FALSE(fresh.loadCheckpoint(path, nullptr, &err));
    EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Checkpoint, ConfigFingerprintMismatchRejected)
{
    NocSystem nord(ckptConfig(PgDesign::kNord));
    const std::string path = testTempPath("nord_config.ckpt");
    std::string err;
    ASSERT_TRUE(nord.saveCheckpoint(path, {}, &err)) << err;

    NocSystem conv(ckptConfig(PgDesign::kConvPg));
    EXPECT_FALSE(conv.loadCheckpoint(path, nullptr, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptPayloadRejectedWithoutPanic)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    NocSystem sys(cfg);
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&t);
    sys.run(300);
    const std::string path = testTempPath("nord_corrupt.ckpt");
    std::string err;
    ASSERT_TRUE(sys.saveCheckpoint(path, {}, &err)) << err;

    // Flip one byte deep inside the payload.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -64, SEEK_END);
    std::uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    std::fseek(f, -1, SEEK_CUR);
    b ^= 0xff;
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);

    NocSystem fresh(cfg);
    SyntheticTraffic tf(TrafficPattern::kUniformRandom, 0.08, 7);
    fresh.setWorkload(&tf);
    EXPECT_FALSE(fresh.loadCheckpoint(path, nullptr, &err));
    EXPECT_NE(err.find("hash mismatch"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Checkpoint, AuditorRecoverStateSurvivesRestore)
{
    // A recover-mode campaign leaks credits the auditor repairs and
    // attributes to the injector. After a restore that attribution must
    // carry over: the resumed run's first sweeps raise no unexpected
    // violations and its recovery tally marches in lockstep with the
    // uninterrupted run's.
    NocConfig cfg = ckptConfig(PgDesign::kNord, true);
    cfg.fault.creditLeakRate = 5e-4;  // leak hard enough to see repairs

    NocSystem sys1(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.10, 11);
    sys1.setWorkload(&t1);
    sys1.run(2000);

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    NocSystem sys2(cfg);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.10, 11);
    sys2.setWorkload(&t2);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_TRUE(load.exhausted());

    const std::uint64_t sweepsAtRestore = sys2.auditor().sweepCount();
    sys1.run(1000);
    sys2.run(1000);
    EXPECT_GT(sys2.auditor().sweepCount(), sweepsAtRestore);
    EXPECT_EQ(sys1.auditor().unexpectedViolations(),
              sys2.auditor().unexpectedViolations());
    EXPECT_EQ(sys2.auditor().unexpectedViolations(), 0u);
    EXPECT_EQ(sys1.auditor().recoveredFaults(),
              sys2.auditor().recoveredFaults());
    EXPECT_GT(sys2.auditor().recoveredFaults(), 0u);
    EXPECT_EQ(sys1.stateHash(), sys2.stateHash());
}

// ---------------------------------------------------------------------
// Container fuzz: truncations and bit flips.
//
// A rerun campaign restarts workers from whatever checkpoint a
// SIGKILL left behind, so the loader must survive arbitrary damage: every
// truncation and every single-bit flip must fail with a diagnostic --
// never crash, never allocate absurdly (the header digest guards paySize
// before it is trusted), and never leave the system partially loaded
// (loadCheckpoint is transactional: on failure the pre-call state is
// rolled back).
// ---------------------------------------------------------------------

std::vector<unsigned char>
slurpBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spewBytes(const std::string &path, const std::vector<unsigned char> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!b.empty()) {
        ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
    }
    ASSERT_EQ(std::fclose(f), 0);
}

/**
 * Fixed header size: magic u32, version u32, then fingerprint, cycle,
 * user[4], paySize, payHash, metaHash as u64 (see checkpoint.cc).
 */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 * 9;

/**
 * Assert that loading @p path into a warmed system fails with a
 * diagnostic and rolls the system back to its pre-call state exactly.
 */
void
expectRejectedWithRollback(NocSystem &victim, const std::string &path,
                           const std::string &what)
{
    const std::uint64_t before = victim.stateHash();
    const Cycle now = victim.now();
    std::string err;
    EXPECT_FALSE(victim.loadCheckpoint(path, nullptr, &err)) << what;
    EXPECT_FALSE(err.empty()) << what << ": failure must carry a "
                                         "diagnostic";
    EXPECT_EQ(victim.now(), now) << what;
    EXPECT_EQ(victim.stateHash(), before)
        << what << ": failed load must roll back, not leave a "
                   "half-deserialized system";
}

TEST(CheckpointFuzz, EveryTruncationRejectedWithRollback)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    NocSystem sys(cfg);
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&t);
    sys.run(300);
    const std::string golden = testTempPath("fuzz_trunc_golden.ckpt");
    std::string err;
    ASSERT_TRUE(sys.saveCheckpoint(golden, {}, &err)) << err;
    const std::vector<unsigned char> intact = slurpBytes(golden);
    ASSERT_GT(intact.size(), kHeaderBytes);

    NocSystem victim(cfg);
    SyntheticTraffic tv(TrafficPattern::kUniformRandom, 0.08, 7);
    victim.setWorkload(&tv);
    victim.run(150);

    const std::string path = testTempPath("fuzz_trunc.ckpt");
    std::vector<std::size_t> cuts;
    // Every boundary inside the header, including the exact section
    // boundaries (magic|version|fingerprint|cycle|user|size|hash|digest).
    for (std::size_t n = 0; n <= kHeaderBytes; ++n)
        cuts.push_back(n);
    // A spread of payload truncations up to one-byte-short.
    const std::size_t pay = intact.size() - kHeaderBytes;
    for (int i = 1; i <= 16; ++i)
        cuts.push_back(kHeaderBytes + (pay * i) / 17);
    cuts.push_back(intact.size() - 1);
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, intact.size());
        spewBytes(path, {intact.begin(),
                         intact.begin() + static_cast<long>(cut)});
        expectRejectedWithRollback(
            victim, path,
            "truncated to " + std::to_string(cut) + " bytes");
    }

    // Control: the intact file still loads, so the harness is not
    // vacuously passing.
    std::string ok;
    EXPECT_TRUE(victim.loadCheckpoint(golden, nullptr, &ok)) << ok;
    EXPECT_EQ(victim.stateHash(), sys.stateHash());
    std::remove(golden.c_str());
    std::remove(path.c_str());
}

TEST(CheckpointFuzz, EveryHeaderBitFlipRejectedWithRollback)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    NocSystem sys(cfg);
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&t);
    sys.run(300);
    const std::string golden = testTempPath("fuzz_flip_golden.ckpt");
    std::string err;
    ASSERT_TRUE(sys.saveCheckpoint(golden, {1, 2, 3, 4}, &err)) << err;
    const std::vector<unsigned char> intact = slurpBytes(golden);

    NocSystem victim(cfg);
    SyntheticTraffic tv(TrafficPattern::kUniformRandom, 0.08, 7);
    victim.setWorkload(&tv);
    victim.run(150);

    const std::string path = testTempPath("fuzz_flip.ckpt");
    std::vector<unsigned char> bytes = intact;
    for (std::size_t byte = 0; byte < kHeaderBytes; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            bytes[byte] =
                static_cast<unsigned char>(intact[byte] ^ (1u << bit));
            spewBytes(path, bytes);
            expectRejectedWithRollback(
                victim, path,
                "bit " + std::to_string(bit) + " of header byte " +
                    std::to_string(byte));
            bytes[byte] = intact[byte];
        }
    }

    // The paySize field specifically: a flipped high bit must be caught
    // by the header digest, not by an attempted multi-exabyte vector.
    const std::size_t paySizeOff = 4 + 4 + 8 + 8 + 32;
    bytes[paySizeOff + 7] ^= 0x80;  // top bit of the little-endian u64
    spewBytes(path, bytes);
    std::string diag;
    EXPECT_FALSE(victim.loadCheckpoint(path, nullptr, &diag));
    EXPECT_NE(diag.find("digest"), std::string::npos) << diag;
    std::remove(golden.c_str());
    std::remove(path.c_str());
}

TEST(CheckpointFuzz, SampledPayloadBitFlipsRejectedWithRollback)
{
    const NocConfig cfg = ckptConfig(PgDesign::kNord);
    NocSystem sys(cfg);
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&t);
    sys.run(300);
    const std::string golden = testTempPath("fuzz_pay_golden.ckpt");
    std::string err;
    ASSERT_TRUE(sys.saveCheckpoint(golden, {}, &err)) << err;
    const std::vector<unsigned char> intact = slurpBytes(golden);
    const std::size_t pay = intact.size() - kHeaderBytes;
    ASSERT_GT(pay, 64u);

    NocSystem victim(cfg);
    SyntheticTraffic tv(TrafficPattern::kUniformRandom, 0.08, 7);
    victim.setWorkload(&tv);
    victim.run(150);

    const std::string path = testTempPath("fuzz_pay.ckpt");
    std::vector<unsigned char> bytes = intact;
    for (int i = 0; i < 64; ++i) {
        // Deterministic spread over the payload, cycling the flipped bit.
        const std::size_t off = kHeaderBytes + (pay * i) / 64;
        bytes[off] = static_cast<unsigned char>(intact[off] ^
                                                (1u << (i % 8)));
        spewBytes(path, bytes);
        expectRejectedWithRollback(victim, path,
                                   "payload byte " + std::to_string(off));
        bytes[off] = intact[off];
    }
    std::remove(golden.c_str());
    std::remove(path.c_str());
}

TEST(Checkpoint, E2eStateBytesPinned)
{
    // The E2E layer's serialized bytes, pinned: a faulted 8x8 NoRD run
    // saved at cycle 3000, with a retried send, a tail held behind a
    // reorder hole and a partly arrived multi-flit copy in the payload,
    // must hash to the value the map-based endpoint wrote. Any change to
    // the layout of the endpoint's buffers has to keep these bytes. (The
    // pin moved once, with checkpoint version 4: the fault injector's
    // section lost three u64s, and every other byte stayed.)
    NocConfig cfg = makeShippedConfig(PgDesign::kNord, 8, 8);
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = 1e-3;
    cfg.fault.flitDropRate = 1e-3;
    cfg.verify.interval = 256;
    cfg.verify.policy = AuditPolicy::kRecover;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.06, 11);
    sys.setWorkload(&traffic);
    sys.run(3000);

    E2eEndpoint::Occupancy held;
    for (NodeId id = 0; id < cfg.numNodes(); ++id) {
        const E2eEndpoint::Occupancy o = sys.ni(id).e2e()->occupancy();
        held.retrying += o.retrying;
        held.heldTails += o.heldTails;
        held.partialCopies += o.partialCopies;
    }
    EXPECT_GT(held.retrying, 0u);
    EXPECT_GT(held.heldTails, 0u);
    EXPECT_GT(held.partialCopies, 0u);

    StateSerializer save(SerialMode::kSave);
    sys.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();
    EXPECT_EQ(fnv1a(save.buffer()), 0x5bd2a1bf08044127ULL);
    sys.setWorkload(nullptr);
}

TEST(Checkpoint, HashModeMatchesSaveBufferDigest)
{
    // stateHash() (kHash walk) must equal the FNV digest of the kSave
    // buffer: the two walks visit identical bytes.
    NocSystem sys(ckptConfig(PgDesign::kNord));
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&t);
    sys.run(400);

    StateSerializer save(SerialMode::kSave);
    sys.saveState(save);
    ASSERT_TRUE(save.ok());
    EXPECT_EQ(sys.stateHash(), fnv1a(save.buffer()));
}

}  // namespace
}  // namespace nord
