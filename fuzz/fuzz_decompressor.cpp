// Fuzz harness for TemplateDecompressor — the parser a compromised or
// desynchronized peer talks to. Two phases per input:
//
// 1. Adversarial decode: prime the reference ring with seed-derived frames
//    (so copy ops have real references to chase), then hand the attacker
//    bytes straight to decompress(). It must either fail cleanly or produce
//    a bounded frame — never crash, never over-read the ring.
//
// 2. Lockstep round-trip: drive compressor -> decompressor with frames cut
//    from the same input and assert the decompressor reproduces every frame
//    exactly. A seeded on/off schedule toggles compression between runs of
//    frames; off-frames travel unrecorded (wire::kFlagUnrecorded) and skip
//    both rings, as the data plane sends them. This is the ring-desync
//    resistance property: one corrupted step would poison every later
//    frame, so exact equality across the whole sequence is the strongest
//    invariant available.
//
// Input layout: [8B seed][1B prime count][encoded bytes / frame material].

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "util/rng.h"
#include "wire/compression.h"

using rnl::util::Bytes;
using rnl::util::BytesView;
using rnl::wire::TemplateCompressor;
using rnl::wire::TemplateDecompressor;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 9) return 0;
  const std::uint64_t seed = rnl::fuzz::seed_prefix(data, size);
  rnl::util::Rng rng(seed);
  const std::size_t prime_count = data[8] % (TemplateCompressor::kRingSize + 1);
  const BytesView body(data + 9, size - 9);

  // Phase 1: adversarial decode against a primed ring.
  TemplateDecompressor victim;
  for (std::size_t i = 0; i < prime_count; ++i) {
    Bytes frame(1 + rng.below(512));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.next_u64());
    victim.note_raw(frame);
  }
  auto inflated = victim.decompress(body);
  if (inflated.ok()) {
    FUZZ_ASSERT(inflated->size() <= 64 * 1024);
  }

  // Phase 2: compressor/decompressor lockstep round-trip across toggles.
  TemplateCompressor compressor;
  TemplateDecompressor decompressor;
  std::size_t offset = 0;
  bool enabled = true;
  std::size_t run_left = 1 + rng.below(8);
  while (offset < body.size()) {
    if (run_left-- == 0) {
      enabled = !enabled;
      run_left = rng.below(TemplateCompressor::kRingSize + 4);
    }
    std::size_t take = 1 + rng.below(256);
    if (take > body.size() - offset) take = body.size() - offset;
    BytesView frame = body.subspan(offset, take);
    offset += take;
    if (!enabled) continue;  // unrecorded: delivered raw, no ring moves
    auto compressed = compressor.compress(frame);
    if (compressed.has_value()) {
      auto back = decompressor.decompress(*compressed);
      FUZZ_ASSERT(back.ok());
      FUZZ_ASSERT(back->size() == frame.size());
      FUZZ_ASSERT(std::equal(back->begin(), back->end(), frame.begin()));
    } else {
      decompressor.note_raw(frame);
    }
  }
  return 0;
}
