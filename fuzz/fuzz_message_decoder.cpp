// Fuzz harness for MessageDecoder: the first parser every byte from the
// Internet reaches (§2.2 — complete L2 frames tunneled from RIS PCs).
//
// Property under test: decoding is invariant to chunk boundaries. The same
// wire bytes are fed whole into one decoder and in seed-derived random
// splits into another; both must agree on every decoded message, the
// poisoned/error state, and (on success) buffered(). This pins down the
// split-feed resume path — the part of the decoder unit tests cannot reach
// from every angle.
//
// A third decoder checks the in-place view lifetime: each chunk is copied
// into a scratch buffer, fed with feed_views, and its views are compared at
// once against the whole-stream decode; then the scratch buffer is
// overwritten with garbage before the next feed. Decoder state that kept
// pointing into a caller's chunk past its feed shows up as a mismatch.
//
// Input layout: [8-byte chunking seed][wire stream bytes].

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "util/rng.h"
#include "wire/tunnel.h"

using rnl::wire::MessageDecoder;

namespace {

bool same_message(const MessageDecoder::Decoded& a,
                  const MessageDecoder::Decoded& b) {
  return a.message == b.message && a.compressed == b.compressed &&
         a.unrecorded == b.unrecorded;
}

bool same_view(const MessageDecoder::Decoded& a,
               const MessageDecoder::DecodedView& b) {
  return a.message.type == b.type && a.message.router_id == b.router_id &&
         a.message.port_id == b.port_id && a.compressed == b.compressed &&
         a.unrecorded == b.unrecorded && a.trace_id == b.trace_id &&
         std::equal(a.message.payload.begin(), a.message.payload.end(),
                    b.payload.begin(), b.payload.end());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8) return 0;
  const std::uint64_t seed = rnl::fuzz::seed_prefix(data, size);
  const rnl::util::BytesView stream(data + 8, size - 8);

  MessageDecoder whole;
  std::vector<MessageDecoder::Decoded> whole_out = whole.feed(stream);

  MessageDecoder chunked;
  rnl::util::Rng rng(seed);
  std::vector<MessageDecoder::Decoded> chunked_out;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    // 1..96-byte chunks: small enough to split headers and payloads, large
    // enough that long streams still finish quickly.
    std::size_t take = 1 + rng.below(96);
    if (take > stream.size() - offset) take = stream.size() - offset;
    for (auto& decoded : chunked.feed(stream.subspan(offset, take))) {
      chunked_out.push_back(std::move(decoded));
    }
    offset += take;
    // Keep feeding after a framing error: a poisoned decoder must stay
    // poisoned and surface nothing, never crash.
  }

  FUZZ_ASSERT(whole.failed() == chunked.failed());
  FUZZ_ASSERT(whole.error() == chunked.error());
  FUZZ_ASSERT(whole_out.size() == chunked_out.size());
  for (std::size_t i = 0; i < whole_out.size(); ++i) {
    FUZZ_ASSERT(same_message(whole_out[i], chunked_out[i]));
  }
  if (!whole.failed()) {
    // On a clean stream both decoders hold the same trailing partial frame.
    FUZZ_ASSERT(whole.buffered() == chunked.buffered());
  }

  MessageDecoder viewed;
  rnl::util::Rng view_rng(seed + 1);  // different split points
  std::vector<std::uint8_t> scratch;
  std::size_t matched = 0;
  offset = 0;
  while (offset < stream.size()) {
    std::size_t take = 1 + view_rng.below(96);
    if (take > stream.size() - offset) take = stream.size() - offset;
    const auto chunk = stream.subspan(offset, take);
    scratch.assign(chunk.begin(), chunk.end());
    for (const auto& view : viewed.feed_views(scratch)) {
      FUZZ_ASSERT(matched < whole_out.size());
      FUZZ_ASSERT(same_view(whole_out[matched], view));
      ++matched;
    }
    std::fill(scratch.begin(), scratch.end(), 0xA5);  // the chunk dies
    offset += take;
  }
  FUZZ_ASSERT(matched == whole_out.size());
  FUZZ_ASSERT(whole.failed() == viewed.failed());
  FUZZ_ASSERT(whole.error() == viewed.error());
  if (!whole.failed()) FUZZ_ASSERT(whole.buffered() == viewed.buffered());
  return 0;
}
