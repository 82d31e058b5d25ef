// Property / fuzz coverage for both wire framings: deterministic
// pseudo-random adversarial inputs through EscapeField/UnescapeField,
// FormatResponse/ParseResponse, and the binary encode/decode pair. The
// invariants under test:
//
//   * parse(format(x)) == x for every representable ServiceResponse, in
//     both framings — including dot-leading lines, embedded backslashes,
//     control characters, and empty lines;
//   * decoders never crash, loop, or over-read on arbitrary bytes —
//     truncations, overlong varints, and trailing garbage all come back
//     as clean errors;
//   * the length-prefixed extractor agrees byte-for-byte with the
//     encoders about frame boundaries.
//
// All randomness is a fixed-seed LCG so every run covers the same corpus.

#include "service/protocol.h"

#include <gtest/gtest.h>

#include "service/replication.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace ecrint::service {
namespace {

// Deterministic 64-bit LCG (MMIX constants): the corpus must be identical
// on every run and platform.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17;
  }
  uint64_t Next(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

std::string RandomBytes(Lcg& rng, size_t max_len) {
  size_t len = rng.Next(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Bias toward the bytes the framings treat specially.
    switch (rng.Next(6)) {
      case 0:
        out.push_back('\n');
        break;
      case 1:
        out.push_back('\\');
        break;
      case 2:
        out.push_back('.');
        break;
      case 3:
        out.push_back('\t');
        break;
      default:
        out.push_back(static_cast<char>(rng.Next(255) + 1));  // no NUL
        break;
    }
  }
  return out;
}

ServiceResponse RandomResponse(Lcg& rng) {
  ServiceResponse response;
  if (rng.Next(3) == 0) {
    ServiceError error;
    error.code = static_cast<ServiceErrorCode>(rng.Next(5));
    // Wire error messages are single-line (the status line owns them).
    std::string message = RandomBytes(rng, 40);
    for (char& c : message) {
      if (c == '\n' || c == '\t' || c == '\\') c = '_';
    }
    // Leading/trailing spaces are not representable on the v1 status line
    // (the parser tokenizes on spaces); real error messages never have them.
    while (!message.empty() && message.front() == ' ') message.erase(0, 1);
    while (!message.empty() && message.back() == ' ') message.pop_back();
    error.message = message;
    if (error.code == ServiceErrorCode::kUnavailable) {
      error.retry_after_ms = static_cast<int64_t>(rng.Next(100000));
    }
    response.error = error;
    return response;
  }
  size_t lines = rng.Next(8);
  for (size_t i = 0; i < lines; ++i) {
    response.lines.push_back(RandomBytes(rng, 60));
  }
  return response;
}

void ExpectSameResponse(const ServiceResponse& a, const ServiceResponse& b,
                        const std::string& context) {
  ASSERT_EQ(a.error.has_value(), b.error.has_value()) << context;
  if (a.error.has_value()) {
    EXPECT_EQ(static_cast<int>(a.error->code),
              static_cast<int>(b.error->code))
        << context;
    EXPECT_EQ(a.error->message, b.error->message) << context;
    EXPECT_EQ(a.error->retry_after_ms, b.error->retry_after_ms) << context;
  }
  ASSERT_EQ(a.lines, b.lines) << context;
}

// --- escaping --------------------------------------------------------------

TEST(ProtocolFuzzTest, EscapeUnescapeRoundTripsAdversarialStrings) {
  Lcg rng(1);
  for (int i = 0; i < 2000; ++i) {
    std::string original = RandomBytes(rng, 80);
    std::string escaped = EscapeField(original);
    // The escaped form must be wire-safe: single line, no raw tabs.
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('\t'), std::string::npos);
    Result<std::string> back = UnescapeField(escaped);
    ASSERT_TRUE(back.ok()) << "iteration " << i;
    EXPECT_EQ(*back, original) << "iteration " << i;
  }
}

TEST(ProtocolFuzzTest, UnescapeNeverCrashesOnArbitraryInput) {
  Lcg rng(2);
  for (int i = 0; i < 2000; ++i) {
    // May error (unknown escapes, trailing backslash) but must not crash.
    (void)UnescapeField(RandomBytes(rng, 80));
  }
}

// --- text framing ----------------------------------------------------------

TEST(ProtocolFuzzTest, TextFramingRoundTripsRandomResponses) {
  Lcg rng(3);
  for (int i = 0; i < 2000; ++i) {
    ServiceResponse original = RandomResponse(rng);
    std::string wire = FormatResponse(original);
    Result<ServiceResponse> parsed = ParseResponse(wire);
    ASSERT_TRUE(parsed.ok())
        << "iteration " << i << ": " << parsed.status().ToString();
    ExpectSameResponse(original, *parsed,
                       "iteration " + std::to_string(i));
  }
}

TEST(ProtocolFuzzTest, ParseResponseNeverCrashesOnArbitraryInput) {
  Lcg rng(4);
  for (int i = 0; i < 2000; ++i) {
    (void)ParseResponse(RandomBytes(rng, 200));
  }
  // Truncations of a VALID frame at every byte: either a clean error or,
  // for the rare prefix that is itself a complete frame, a clean parse.
  ServiceResponse response;
  response.lines = {".dot-leading", "back\\slash", "", "plain"};
  std::string wire = FormatResponse(response);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    (void)ParseResponse(wire.substr(0, cut));
  }
}

// --- binary framing --------------------------------------------------------

TEST(ProtocolFuzzTest, BinaryResponseRoundTripsRandomResponses) {
  Lcg rng(5);
  for (int i = 0; i < 2000; ++i) {
    ServiceResponse original = RandomResponse(rng);
    std::string frame = EncodeBinaryResponse(original);

    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete)
        << "iteration " << i;
    EXPECT_EQ(consumed, frame.size()) << "iteration " << i;

    Result<DecodedResponse> decoded = DecodeBinaryResponse(body);
    ASSERT_TRUE(decoded.ok())
        << "iteration " << i << ": " << decoded.status().message();
    ASSERT_FALSE(decoded->batch);
    ASSERT_EQ(decoded->items.size(), 1u);
    ExpectSameResponse(original, decoded->items[0],
                       "iteration " + std::to_string(i));
  }
}

TEST(ProtocolFuzzTest, BinaryBatchRoundTripsRandomBatches) {
  Lcg rng(6);
  for (int i = 0; i < 300; ++i) {
    std::vector<ServiceResponse> originals;
    size_t n = rng.Next(10) + 1;
    for (size_t j = 0; j < n; ++j) originals.push_back(RandomResponse(rng));
    std::string frame = EncodeBinaryBatchResponse(originals);

    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete);
    Result<DecodedResponse> decoded = DecodeBinaryResponse(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_TRUE(decoded->batch);
    ASSERT_EQ(decoded->items.size(), originals.size());
    for (size_t j = 0; j < n; ++j) {
      ExpectSameResponse(originals[j], decoded->items[j],
                         "batch " + std::to_string(i) + " item " +
                             std::to_string(j));
    }
  }
}

TEST(ProtocolFuzzTest, BinaryRequestRoundTripsRawArguments) {
  Lcg rng(7);
  for (int i = 0; i < 1000; ++i) {
    BinaryRequest original;
    original.verb = static_cast<WireVerb>(rng.Next(15) + 1);
    size_t argc = rng.Next(5);
    for (size_t j = 0; j < argc; ++j) {
      // Binary args are raw bytes: newlines, dots, backslashes, anything.
      original.args.push_back(RandomBytes(rng, 50));
    }
    std::string frame = EncodeBinaryRequest(original);

    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete);
    Result<DecodedRequest> decoded = DecodeBinaryRequest(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_FALSE(decoded->batch);
    ASSERT_EQ(decoded->items.size(), 1u);
    EXPECT_EQ(static_cast<int>(decoded->items[0].verb),
              static_cast<int>(original.verb));
    EXPECT_EQ(decoded->items[0].args, original.args);
  }
}

TEST(ProtocolFuzzTest, BinaryDecodersSurviveArbitraryBytes) {
  Lcg rng(8);
  for (int i = 0; i < 4000; ++i) {
    std::string bytes = RandomBytes(rng, 120);
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    FrameStatus status = ExtractFrame(bytes, &body, &consumed, &error);
    if (status == FrameStatus::kComplete) {
      EXPECT_LE(consumed, bytes.size());
      (void)DecodeBinaryRequest(body);
      (void)DecodeBinaryResponse(body);
    }
    // Raw bodies too (skipping the length prefix entirely).
    (void)DecodeBinaryRequest(bytes);
    (void)DecodeBinaryResponse(bytes);
  }
}

TEST(ProtocolFuzzTest, BinaryTruncationAtEveryByteIsClean) {
  BinaryRequest request;
  request.verb = WireVerb::kDefine;
  request.args = {std::string(300, 'x'), "a\nb", std::string("\0z", 2)};
  std::string frame = EncodeBinaryRequest(request);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    FrameStatus status =
        ExtractFrame(frame.substr(0, cut), &body, &consumed, &error);
    // A truncated frame is never "complete": the length prefix promises
    // more bytes than are present.
    EXPECT_EQ(status, FrameStatus::kNeedMore) << "cut at " << cut;
  }
}

TEST(ProtocolFuzzTest, OverlongVarintIsRejected) {
  // 11 continuation bytes exceed the 10-byte LEB128 ceiling.
  std::string overlong(11, '\x80');
  overlong.push_back('\x01');
  std::string_view in = overlong;
  uint64_t value = 0;
  EXPECT_FALSE(GetVarint(in, value));

  std::string_view body;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ExtractFrame(overlong, &body, &consumed, &error),
            FrameStatus::kError);
}

TEST(ProtocolFuzzTest, OversizedFramePrefixIsRejectedEarly) {
  // A length prefix past kMaxBinaryFrameBytes must be refused from the
  // prefix alone, long before that many bytes arrive.
  std::string prefix;
  PutVarint(prefix, static_cast<uint64_t>(kMaxBinaryFrameBytes) + 1);
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ExtractFrame(prefix, &body, &consumed, &error),
            FrameStatus::kError);
  EXPECT_FALSE(error.empty());
}

TEST(ProtocolFuzzTest, TrailingGarbageDoesNotLeakIntoFrame) {
  ServiceResponse response;
  response.lines = {"payload"};
  std::string frame = EncodeBinaryResponse(response);
  std::string stream = frame + "GARBAGE-NEXT-FRAME";
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ExtractFrame(stream, &body, &consumed, &error),
            FrameStatus::kComplete);
  // The extractor consumed exactly one frame; the garbage stays buffered.
  EXPECT_EQ(consumed, frame.size());
  Result<DecodedResponse> decoded = DecodeBinaryResponse(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->items[0].lines, response.lines);
}

// --- replication framing ---------------------------------------------------
// Same adversarial treatment for the replication frames (0x03 subscribe,
// 0x90-0x94 stream): a follower decodes bytes a chaos-mangled network
// delivered, so truncation, overlong varints, and arbitrary garbage must
// all come back as clean errors. Named ReplicationFuzzTest so the CI
// replication suite's gtest filter picks these up.

// Encodes one of each replication frame with every field populated
// (epochs included — the fencing fields must survive the round trip).
std::vector<std::string> AllReplicationFrames() {
  ReplSubscribe subscribe;
  subscribe.project = "alpha";
  subscribe.have_seq = 12345;
  subscribe.epoch = 7;
  subscribe.leader_hint = "10.0.0.9:7400";
  ReplHello hello;
  hello.has_checkpoint = true;
  hello.seq = 99;
  hello.total_bytes = 1 << 20;
  hello.crc = 0xDEADBEEF;
  hello.epoch = 3;
  ReplChunk chunk;
  chunk.offset = 4096;
  chunk.crc = 0xCAFEF00D;
  chunk.bytes = std::string(300, '\x5A');
  ReplRecord record;
  record.seq = 77;
  record.crc = 0x12345678;
  record.payload = std::string("define\0entity", 13);
  ReplStamp stamp;
  stamp.seq = 100;
  stamp.epoch = 9;
  return {EncodeReplSubscribe(subscribe), EncodeReplHello(hello),
          EncodeReplChunk(chunk), EncodeReplRecord(record),
          EncodeReplStamp(stamp), EncodeReplError("leader refused")};
}

std::string_view UnframeBody(const std::string& frame) {
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ExtractFrame(frame, &body, &consumed, &error),
            FrameStatus::kComplete);
  EXPECT_EQ(consumed, frame.size());
  return body;
}

TEST(ReplicationFuzzTest, FramesRoundTripWithEpochFields) {
  ReplSubscribe subscribe;
  subscribe.project = "alpha";
  subscribe.have_seq = 12345;
  subscribe.epoch = 7;
  subscribe.leader_hint = "10.0.0.9:7400";
  Result<ReplFrame> sub =
      DecodeReplFrame(UnframeBody(EncodeReplSubscribe(subscribe)));
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  EXPECT_EQ(sub->subscribe.project, "alpha");
  EXPECT_EQ(sub->subscribe.have_seq, 12345u);
  EXPECT_EQ(sub->subscribe.epoch, 7u);
  EXPECT_EQ(sub->subscribe.leader_hint, "10.0.0.9:7400");

  ReplHello hello;
  hello.has_checkpoint = true;
  hello.seq = 99;
  hello.total_bytes = 1 << 20;
  hello.crc = 0xDEADBEEF;
  hello.epoch = 3;
  Result<ReplFrame> hi = DecodeReplFrame(UnframeBody(EncodeReplHello(hello)));
  ASSERT_TRUE(hi.ok()) << hi.status().message();
  EXPECT_TRUE(hi->hello.has_checkpoint);
  EXPECT_EQ(hi->hello.seq, 99u);
  EXPECT_EQ(hi->hello.epoch, 3u);

  ReplStamp stamp;
  stamp.seq = 100;
  stamp.epoch = 9;
  Result<ReplFrame> st = DecodeReplFrame(UnframeBody(EncodeReplStamp(stamp)));
  ASSERT_TRUE(st.ok()) << st.status().message();
  EXPECT_EQ(st->stamp.seq, 100u);
  EXPECT_EQ(st->stamp.epoch, 9u);
}

// The body lengths at which a truncated subscribe/hello/stamp is not
// truncation at all but the complete PRE-EPOCH grammar (the trailing
// epoch/leader-hint fields are optional on decode for rolling-upgrade
// compatibility — absence reads as epoch 0 / no hint). Every other proper
// prefix must still be a clean error.
std::set<size_t> LegacyCompleteLengths(const std::string& body) {
  std::set<size_t> lengths;
  const uint8_t type = static_cast<uint8_t>(body[0]);
  if (type == kFrameReplSubscribe) {
    std::string prefix;
    prefix.push_back(static_cast<char>(kFrameReplSubscribe));
    PutLpString(prefix, "alpha");
    PutVarint(prefix, 12345);  // have_seq, as in AllReplicationFrames
    lengths.insert(prefix.size());  // pre-epoch grammar
    PutVarint(prefix, 7);  // epoch present, hint absent
    lengths.insert(prefix.size());
  } else if (type == kFrameReplHello || type == kFrameReplStamp) {
    // Both end in one optional epoch varint (1 byte for the test values).
    lengths.insert(body.size() - 1);
  }
  return lengths;
}

TEST(ReplicationFuzzTest, TruncationAtEveryByteIsClean) {
  for (const std::string& frame : AllReplicationFrames()) {
    // Wire-level truncation: the extractor must keep asking for more.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::string_view body;
      size_t consumed = 0;
      std::string error;
      EXPECT_EQ(ExtractFrame(frame.substr(0, cut), &body, &consumed, &error),
                FrameStatus::kNeedMore)
          << "frame type " << static_cast<int>(UnframeBody(frame)[0])
          << " cut at " << cut;
    }
    // Body-level truncation: every proper prefix is missing a field or
    // ends mid-varint/mid-string — a clean decode error, never a crash or
    // a silently short frame — EXCEPT the exact lengths where the prefix
    // IS the complete pre-epoch frame, which must decode with epoch 0.
    std::string body(UnframeBody(frame));
    const std::set<size_t> legacy = LegacyCompleteLengths(body);
    for (size_t cut = 0; cut < body.size(); ++cut) {
      Result<ReplFrame> decoded =
          DecodeReplFrame(std::string_view(body).substr(0, cut));
      if (legacy.count(cut) != 0) {
        ASSERT_TRUE(decoded.ok())
            << "frame type " << static_cast<int>(body[0])
            << " legacy-complete at " << cut << ": "
            << decoded.status().message();
        continue;
      }
      EXPECT_FALSE(decoded.ok())
          << "frame type " << static_cast<int>(body[0]) << " body cut at "
          << cut;
    }
  }
}

TEST(ReplicationFuzzTest, PreEpochFramesDecodeWithEpochZero) {
  // Frames exactly as a PR-8-era peer encodes them: no epoch, no hint.
  std::string subscribe;
  subscribe.push_back(static_cast<char>(kFrameReplSubscribe));
  PutLpString(subscribe, "uni");
  PutVarint(subscribe, 41);
  Result<ReplFrame> sub = DecodeReplFrame(subscribe);
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  EXPECT_EQ(sub->subscribe.project, "uni");
  EXPECT_EQ(sub->subscribe.have_seq, 41u);
  EXPECT_EQ(sub->subscribe.epoch, 0u);
  EXPECT_TRUE(sub->subscribe.leader_hint.empty());

  std::string hello;
  hello.push_back(static_cast<char>(kFrameReplHello));
  PutVarint(hello, 1);        // has_checkpoint
  PutVarint(hello, 99);       // seq
  PutVarint(hello, 4096);     // total_bytes
  PutVarint(hello, 0xABCD);   // crc
  Result<ReplFrame> hi = DecodeReplFrame(hello);
  ASSERT_TRUE(hi.ok()) << hi.status().message();
  EXPECT_TRUE(hi->hello.has_checkpoint);
  EXPECT_EQ(hi->hello.seq, 99u);
  EXPECT_EQ(hi->hello.epoch, 0u);

  std::string stamp;
  stamp.push_back(static_cast<char>(kFrameReplStamp));
  PutVarint(stamp, 12);  // seq
  for (int i = 0; i < 5; ++i) PutVarint(stamp, 1);  // zigzag counters
  Result<ReplFrame> st = DecodeReplFrame(stamp);
  ASSERT_TRUE(st.ok()) << st.status().message();
  EXPECT_EQ(st->stamp.seq, 12u);
  EXPECT_EQ(st->stamp.epoch, 0u);
}

TEST(ReplicationFuzzTest, OverlongVarintInBodyIsRejected) {
  // A subscribe whose have_seq varint has 11 continuation bytes: past the
  // LEB128 ceiling, must be an error rather than an over-read.
  std::string body;
  body.push_back(static_cast<char>(kFrameReplSubscribe));
  PutLpString(body, "alpha");
  body.append(11, '\x80');
  body.push_back('\x01');
  EXPECT_FALSE(DecodeReplFrame(body).ok());

  // Same poison in a stamp's seq field.
  std::string stamp_body;
  stamp_body.push_back(static_cast<char>(kFrameReplStamp));
  stamp_body.append(11, '\x80');
  stamp_body.push_back('\x01');
  EXPECT_FALSE(DecodeReplFrame(stamp_body).ok());
}

TEST(ReplicationFuzzTest, TrailingGarbageAfterFieldsIsRejected) {
  for (const std::string& frame : AllReplicationFrames()) {
    std::string body(UnframeBody(frame));
    body += "extra";
    EXPECT_FALSE(DecodeReplFrame(body).ok())
        << "frame type " << static_cast<int>(body[0]);
  }
}

TEST(ReplicationFuzzTest, ArbitraryBytesNeverCrashDecoder) {
  Lcg rng(9);
  const uint8_t kTypes[] = {kFrameReplSubscribe, kFrameReplHello,
                            kFrameReplChunk,     kFrameReplRecord,
                            kFrameReplStamp,     kFrameReplError};
  for (int i = 0; i < 4000; ++i) {
    std::string bytes = RandomBytes(rng, 120);
    // Half the corpus leads with a real frame type so the per-type field
    // parsers see the garbage, not just the type dispatch.
    if (rng.Next(2) == 0) {
      std::string typed;
      typed.push_back(static_cast<char>(kTypes[rng.Next(6)]));
      typed += bytes;
      bytes = typed;
    }
    (void)DecodeReplFrame(bytes);
  }
}

TEST(ReplicationFuzzTest, UnknownFrameTypeIsRejected) {
  std::string body;
  body.push_back('\x42');
  PutVarint(body, 1);
  EXPECT_FALSE(DecodeReplFrame(body).ok());
}

}  // namespace
}  // namespace ecrint::service
