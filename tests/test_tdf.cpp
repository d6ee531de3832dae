// The TDF telemetry wire stack: tagged-column frame encoding with a
// once-per-session schema negotiation, quantization to the wire's
// fixed-point resolution, the bounded on-device ring log, corruption
// rejection through the FNV trailer, and the FleetSim integration — where
// devices encode real frames, edges decode them back to rows, and the
// row-conservation ledger must still close under compound chaos.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "sim/fleet.hpp"
#include "tdf/codec.hpp"
#include "tdf/device_log.hpp"
#include "tdf/schema.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotml::tdf {
namespace {

constexpr std::uint8_t kScale = 8;  // wire resolution 1/256

// A fixed device window shaped like the simulator's sensor data: timestamp
// ramp, two noisy-looking numeric channels with a hole each, and a
// categorical mode column. Values are multiples of 1/256, so quantization
// is the identity and the frame bytes are stable enough to pin as golden.
data::Dataset sensor_window() {
  data::Dataset ds;
  data::Column& ts = ds.add_numeric_column("timestamp");
  data::Column& temp = ds.add_numeric_column("temperature");
  data::Column& hum = ds.add_numeric_column("humidity");
  data::Column& mode = ds.add_categorical_column("mode");
  const double step = 1.0 / 256.0;
  for (int r = 0; r < 12; ++r) {
    ts.push_numeric(0.5 * r);
    if (r == 3) {
      temp.push_missing();
    } else {
      temp.push_numeric(22.0 + step * (13 * r % 37));
    }
    if (r == 7) {
      hum.push_missing();
    } else {
      hum.push_numeric(55.0 - step * (29 * r % 53));
    }
    mode.push_category(r % 3 == 0 ? "active" : r % 3 == 1 ? "idle" : "sleep");
  }
  return ds;
}

// ---- Schema ------------------------------------------------------------------

TEST(TdfSchema, InferRoundTripsThroughItsBlob) {
  const data::Dataset ds = sensor_window();
  const Schema schema = Schema::infer(ds, kScale);
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema.fields()[0].name, "timestamp");
  EXPECT_EQ(schema.fields()[3].type, data::ColumnType::kCategorical);
  EXPECT_EQ(schema.fields()[1].scale_bits, kScale);

  util::ByteReader r(schema.encoded().data(), schema.encoded().size());
  const Schema back = Schema::decode(r, schema.encoded().size());
  EXPECT_EQ(back.id(), schema.id());
  EXPECT_EQ(back.encoded(), schema.encoded());
}

TEST(TdfSchema, RegistryIsIdempotent) {
  const Schema schema = Schema::infer(sensor_window(), kScale);
  SchemaRegistry reg;
  EXPECT_TRUE(reg.add(schema));
  EXPECT_FALSE(reg.add(schema));  // re-negotiation is a no-op
  EXPECT_EQ(reg.size(), 1u);
  ASSERT_NE(reg.find(schema.id()), nullptr);
  EXPECT_EQ(reg.find(schema.id())->encoded(), schema.encoded());
  EXPECT_EQ(reg.find(schema.id() ^ 1), nullptr);
}

// ---- Quantization ------------------------------------------------------------

TEST(TdfQuantize, IsIdempotentAndNormalizesNanToMissing) {
  data::Dataset ds;
  data::Column& v = ds.add_numeric_column("v");
  v.push_numeric(1.0 / 3.0);  // not representable at scale 8
  v.push_numeric(std::numeric_limits<double>::quiet_NaN());
  v.push_missing();
  quantize(ds, kScale);

  EXPECT_TRUE(ds.column(0).is_missing(1));  // NaN reading became missing
  EXPECT_TRUE(ds.column(0).is_missing(2));
  // The surviving cell is now an exact multiple of 2^-8: scaling by 256
  // yields an integer, and re-quantizing changes nothing.
  const double q = ds.column(0).numeric(0);
  const double scaled = std::ldexp(q, kScale);
  EXPECT_EQ(scaled, std::nearbyint(scaled));
  EXPECT_EQ(quantize_value(q, kScale), q);
  // Quantization error is bounded by half a step.
  EXPECT_NEAR(q, 1.0 / 3.0, 0.5 / 256.0);
}

// ---- Frame round-trip --------------------------------------------------------

TEST(TdfFrame, RoundTripReproducesRowsByteForByte) {
  data::Dataset ds = sensor_window();
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  const std::vector<double> origins = {5.0, 10.0};
  const std::vector<std::uint8_t> wire =
      encode_frame(schema, ds, origins, 7, 3, /*include_schema=*/true);

  SchemaRegistry reg;
  const Frame frame = decode_frame(wire, reg);
  EXPECT_TRUE(frame.schema_inline);
  EXPECT_EQ(frame.schema_id, schema.id());
  EXPECT_EQ(frame.device_id, 7u);
  EXPECT_EQ(frame.seq, 3u);
  EXPECT_EQ(frame.origin_s, origins);
  EXPECT_EQ(reg.size(), 1u);  // the inline schema negotiated the session

  // Byte-for-byte row identity: the same checksum the simulator's edge
  // verifies on every decode.
  EXPECT_EQ(net::payload_checksum(frame.rows), net::payload_checksum(ds));

  // A follow-up frame referencing the schema by id decodes against the
  // registry the first frame populated — and costs the blob no more.
  const std::vector<std::uint8_t> next =
      encode_frame(schema, ds, origins, 7, 4, /*include_schema=*/false);
  EXPECT_EQ(wire.size() - next.size(), 2 + schema.encoded().size());
  const Frame f2 = decode_frame(next, reg);
  EXPECT_FALSE(f2.schema_inline);
  EXPECT_EQ(net::payload_checksum(f2.rows), net::payload_checksum(ds));
}

TEST(TdfFrame, RawBitsPathRoundTripsUnquantizedAndNonFiniteValues) {
  data::Dataset ds;
  data::Column& v = ds.add_numeric_column("v");
  v.push_numeric(1.0 / 3.0);  // forces the lossless raw-bits stream
  v.push_numeric(-0.0);
  v.push_numeric(std::numeric_limits<double>::infinity());
  v.push_numeric(6.02214076e23);
  v.push_missing();
  const Schema schema = Schema::infer(ds, kScale);
  SchemaRegistry reg;
  const Frame frame =
      decode_frame(encode_frame(schema, ds, {}, 1, 0, true), reg);
  EXPECT_EQ(net::payload_checksum(frame.rows), net::payload_checksum(ds));
}

TEST(TdfFrame, EmptyWindowAndAllMissingColumnsSurvive) {
  data::Dataset ds;
  ds.add_numeric_column("a");
  data::Column& b = ds.add_categorical_column("b");
  (void)b;
  const Schema schema = Schema::infer(ds, kScale);
  SchemaRegistry reg;
  const Frame empty =
      decode_frame(encode_frame(schema, ds, {}, 0, 0, true), reg);
  EXPECT_EQ(empty.rows.rows(), 0u);
  EXPECT_EQ(net::payload_checksum(empty.rows), net::payload_checksum(ds));

  data::Dataset holes;
  data::Column& h = holes.add_numeric_column("a");
  data::Column& c = holes.add_categorical_column("b");
  for (int i = 0; i < 4; ++i) {
    h.push_missing();
    c.push_missing();
  }
  const Schema s2 = Schema::infer(holes, kScale);
  const Frame f2 = decode_frame(encode_frame(s2, holes, {}, 0, 0, true), reg);
  EXPECT_EQ(net::payload_checksum(f2.rows), net::payload_checksum(holes));
}

TEST(TdfFrame, RefusesSchemaMismatchAndLabels) {
  data::Dataset ds = sensor_window();
  const Schema schema = Schema::infer(ds, kScale);
  data::Dataset renamed;
  renamed.add_numeric_column("not_timestamp");
  EXPECT_THROW(encode_frame(schema, renamed, {}, 0, 0, true), InvalidArgument);

  ds.set_labels(std::vector<int>(ds.rows(), 1));
  EXPECT_THROW(encode_frame(schema, ds, {}, 0, 0, true), InvalidArgument);
}

// ---- Corruption rejection ----------------------------------------------------

TEST(TdfFrame, RejectsTruncationAndEveryBitFlip) {
  data::Dataset ds = sensor_window();
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  const std::vector<std::uint8_t> wire =
      encode_frame(schema, ds, {2.5}, 1, 0, true);
  ASSERT_TRUE(frame_intact(wire));

  SchemaRegistry reg;
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    std::vector<std::uint8_t> truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(frame_intact(truncated));
    EXPECT_THROW(decode_frame(truncated, reg), InvalidArgument);
  }
  // Flip one bit at every byte position: the FNV-1a32 trailer must catch
  // each one (including damage to the trailer itself).
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::vector<std::uint8_t> damaged = wire;
    damaged[i] ^= 0x20;
    EXPECT_FALSE(frame_intact(damaged)) << "flip at byte " << i;
    EXPECT_THROW(decode_frame(damaged, reg), InvalidArgument);
  }
}

TEST(TdfFrame, DecodeBoundsOriginReservesByTheRemainingBytes) {
  // A one-row frame whose origin count is rewritten to 0xFFFFFFFF and whose
  // trailer is restamped: the lying count must fail as truncation, never as
  // a 32 GB reserve.
  data::Dataset ds = sensor_window().select_rows({0});
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  std::vector<std::uint8_t> wire = encode_frame(schema, ds, {}, 1, 0, true);
  // Tail: origin count (u32), origin scale, origin tag, no origin bytes,
  // then the trailer.
  const std::size_t body = wire.size() - 4;
  for (std::size_t i = body - 6; i < body - 2; ++i) wire[i] = 0xFF;
  util::ByteWriter trailer;
  trailer.u32(util::fnv1a(wire.data(), body));
  std::copy(trailer.bytes().begin(), trailer.bytes().end(), wire.begin() + body);
  ASSERT_TRUE(frame_intact(wire));
  SchemaRegistry reg;
  EXPECT_THROW(decode_frame(wire, reg), InvalidArgument);
}

TEST(TdfFrame, RefusesUnknownSchemaId) {
  data::Dataset ds = sensor_window();
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  const std::vector<std::uint8_t> wire =
      encode_frame(schema, ds, {}, 1, 0, /*include_schema=*/false);
  SchemaRegistry empty_registry;
  EXPECT_THROW(decode_frame(wire, empty_registry), InvalidArgument);
}

// ---- Golden wire bytes -------------------------------------------------------

// The frame format is pinned: these exact bytes must decode forever.
// Regenerate with IOTML_UPDATE_GOLDEN=1 after an intentional version bump.
TEST(TdfFrame, GoldenWireBytes) {
  const std::string path = std::string(IOTML_GOLDEN_DIR) + "/tdf_frame.bin";
  data::Dataset ds = sensor_window();
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  const std::vector<std::uint8_t> wire =
      encode_frame(schema, ds, {5.0, 10.0}, 7, 3, /*include_schema=*/true);
  const char* update = std::getenv("IOTML_UPDATE_GOLDEN");  // NOLINT(concurrency-mt-unsafe)
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    for (std::uint8_t b : wire) out.put(static_cast<char>(b));
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file; regenerate with IOTML_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(wire, golden)
      << "TDF frame format drifted; if intentional, bump kFrameVersion and "
         "regenerate with IOTML_UPDATE_GOLDEN=1";
  SchemaRegistry reg;
  EXPECT_EQ(net::payload_checksum(decode_frame(golden, reg).rows),
            net::payload_checksum(ds));
}

// ---- Compression -------------------------------------------------------------

TEST(TdfFrame, BatchedFrameBeatsLegacyModelAtHalf) {
  data::Dataset ds = sensor_window();  // 12 rows >= the bench's 16-row floor
  quantize(ds, kScale);
  const Schema schema = Schema::infer(ds, kScale);
  const std::vector<std::uint8_t> wire =
      encode_frame(schema, ds, {5.0}, 1, 1, /*include_schema=*/false);
  const std::size_t tdf_bytes = net::kMessageHeaderBytes + wire.size();
  const std::size_t legacy_bytes =
      net::kMessageHeaderBytes + net::wire_size_bytes(ds) + 8;
  EXPECT_LE(2 * tdf_bytes, legacy_bytes)
      << "encoded " << tdf_bytes << " vs legacy " << legacy_bytes;
}

// ---- Legacy wire model (the satellite fix) -----------------------------------

TEST(TdfWireModel, NanCellsChargeExactlyLikeMissing) {
  data::Dataset with_nan;
  data::Column& a = with_nan.add_numeric_column("a");
  a.push_numeric(1.5);
  a.push_numeric(std::numeric_limits<double>::quiet_NaN());
  a.push_numeric(2.5);

  data::Dataset with_missing;
  data::Column& b = with_missing.add_numeric_column("a");
  b.push_numeric(1.5);
  b.push_missing();
  b.push_numeric(2.5);

  EXPECT_EQ(net::wire_size_bytes(with_nan), net::wire_size_bytes(with_missing));
}

// ---- Device ring log ---------------------------------------------------------

TEST(TdfDeviceLog, EvictsWholeFramesOldestFirst) {
  DeviceLog log(100);
  EXPECT_TRUE(log.append(40, 4).empty());
  EXPECT_TRUE(log.append(30, 3).empty());
  EXPECT_TRUE(log.append(30, 2).empty());
  EXPECT_EQ(log.bytes(), 100u);
  EXPECT_EQ(log.highwater_bytes(), 100u);

  // 50 more bytes: the two oldest frames must go, in age order.
  const std::vector<DeviceLog::Entry> evicted = log.append(50, 5);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].bytes, 40u);
  EXPECT_EQ(evicted[0].rows, 4u);
  EXPECT_EQ(evicted[1].bytes, 30u);
  EXPECT_EQ(evicted[1].rows, 3u);
  EXPECT_EQ(log.frames(), 2u);
  EXPECT_EQ(log.bytes(), 80u);
  EXPECT_EQ(log.frames_evicted(), 2u);
  EXPECT_EQ(log.rows_evicted(), 7u);
}

TEST(TdfDeviceLog, NewestFrameSurvivesEvenWhenOversized) {
  DeviceLog log(10);
  EXPECT_TRUE(log.append(8, 1).empty());
  const std::vector<DeviceLog::Entry> evicted = log.append(500, 9);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].bytes, 8u);
  EXPECT_EQ(log.frames(), 1u);  // the oversized frame is kept whole
  EXPECT_EQ(log.bytes(), 500u);
  EXPECT_EQ(log.rows(), 9u);

  const DeviceLog::Entry oldest = log.pop_oldest();
  EXPECT_EQ(oldest.rows, 9u);
  EXPECT_TRUE(log.empty());
  EXPECT_THROW(log.pop_oldest(), InvalidArgument);
  EXPECT_THROW(DeviceLog(0), InvalidArgument);
}

// ---- FleetSim integration ----------------------------------------------------

sim::FleetConfig telemetry_config(std::uint64_t seed) {
  sim::FleetConfig config;
  config.devices = 12;
  config.edges = 2;
  config.duration_s = 30.0;
  config.seed = seed;
  config.telemetry.enabled = true;
  return config;
}

TEST(TdfFleet, TelemetryLedgerClosesAndBeatsLegacyModel) {
  sim::FleetSim fleet(telemetry_config(7));
  const sim::FleetReport r = fleet.run();
  EXPECT_TRUE(r.rows_conserved());
  const sim::TelemetrySummary& t = r.telemetry;
  EXPECT_TRUE(t.enabled);
  EXPECT_TRUE(t.decode_identity_ok);
  EXPECT_GT(t.frames_sent, 0u);
  EXPECT_GT(t.frames_delivered, 0u);
  EXPECT_GT(t.rows_encoded, 0u);
  // Everything that arrived intact was decoded back to rows; what was not
  // delivered is covered by the drop/reject buckets.
  EXPECT_LE(t.rows_decoded, t.rows_encoded);
  EXPECT_GE(t.schema_negotiations, 1u);
  EXPECT_GT(t.schema_bytes, 0u);
  EXPECT_NE(t.schema_id, 0u);
  EXPECT_EQ(t.schema_fields, 4u);  // timestamp + 3 sensor channels
  // The tentpole's economics: real frames under half the abstract model.
  EXPECT_LT(2 * t.encoded_wire_bytes, t.legacy_wire_bytes);
  // The ledger shows up in the report JSON (and only when enabled).
  EXPECT_NE(r.to_json().find("\"telemetry\""), std::string::npos);
}

TEST(TdfFleet, LegacyRunsEmitNoTelemetryBlock) {
  sim::FleetConfig config = telemetry_config(7);
  config.telemetry.enabled = false;
  sim::FleetSim fleet(config);
  const sim::FleetReport r = fleet.run();
  EXPECT_FALSE(r.telemetry.enabled);
  EXPECT_EQ(r.to_json().find("\"telemetry\""), std::string::npos);
}

TEST(TdfFleet, SameSeedSameBytesDifferentSeedDifferentLog) {
  sim::FleetSim a(telemetry_config(11));
  sim::FleetSim b(telemetry_config(11));
  const std::string ja = a.run().to_json();
  const std::string jb = b.run().to_json();
  EXPECT_EQ(ja, jb);
  EXPECT_EQ(a.event_log(), b.event_log());

  sim::FleetSim c(telemetry_config(12));
  const sim::FleetReport rc = c.run();
  EXPECT_TRUE(rc.rows_conserved());
  EXPECT_NE(rc.to_json(), ja);
}

TEST(TdfFleet, CompoundChaosRepairsCorruptFramesAndConservesRows) {
  sim::FleetConfig config = telemetry_config(3);
  config.duration_s = 40.0;
  // The bench's compound-chaos posture: churn + storms over an ack-retry
  // transport with store-and-forward, so corrupt frames are detected and
  // repaired by retransmission instead of being lost.
  config.faults.device_churns = 5.0;
  config.faults.device_offtime_mean_s = 2.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_mean_s = 6.0;
  config.chaos.storm_corrupt_prob = 0.2;
  config.chaos.loss_bursts = 1.0;
  config.chaos.burst_drop_prob = 0.4;
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.backoff_base_s = 0.05;
  config.channel.backoff_cap_s = 1.0;
  config.channel.max_attempts = 6;
  config.device_buffer_rows = 4096;
  config.telemetry.device_log_bytes = 4096;

  sim::FleetSim fleet(config);
  const sim::FleetReport r = fleet.run();
  EXPECT_TRUE(r.rows_conserved());
  const sim::TelemetrySummary& t = r.telemetry;
  EXPECT_GT(t.frames_rejected, 0u) << "storm produced no corrupt frames";
  EXPECT_GT(t.frames_retransmitted, 0u) << "no frame was repaired by retry";
  EXPECT_TRUE(t.decode_identity_ok);
  // The ring log saw offline traffic.
  EXPECT_GT(t.log_highwater_bytes, 0u);
}

TEST(TdfFleet, FireAndForgetCorruptFramesAreRejectedNotScored) {
  sim::FleetConfig config = telemetry_config(3);
  config.duration_s = 40.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_mean_s = 8.0;
  config.chaos.storm_corrupt_prob = 0.3;
  sim::FleetSim fleet(config);
  const sim::FleetReport r = fleet.run();
  EXPECT_TRUE(r.rows_conserved());
  EXPECT_GT(r.telemetry.frames_rejected, 0u);
  EXPECT_GT(r.faults.rows_corrupt_rejected, 0u);
  // Rejected frames never reach an edge decode.
  EXPECT_EQ(r.telemetry.frames_delivered + r.telemetry.frames_rejected <=
                r.telemetry.frames_sent,
            true);
}

}  // namespace
}  // namespace iotml::tdf
