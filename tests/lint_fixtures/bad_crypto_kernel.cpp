// lint fixture: raw crypto-kernel calls from outside src/crypto/. Every
// call below must be flagged crypto-isolation — host code reaching past the
// public Sha256/MontgomeryCtx API skips runtime backend dispatch and the
// device cost model.
#include "crypto/biguint.hpp"
#include "crypto/sha256.hpp"

namespace worm {

void hand_rolled_hash(crypto::Sha256& h, const std::uint8_t* block) {
  h.process_blocks(block, 1);
}

void pinned_backend() {
  crypto::Sha256::force_backend(crypto::Sha256Backend::kScalar);
}

void hand_rolled_mont(crypto::MontgomeryCtx& ctx, const std::uint64_t* a,
                      const std::uint64_t* b, std::uint64_t* out,
                      std::uint64_t* scratch) {
  ctx.mont_mul64_into(a, b, out, scratch);
}

void hand_rolled_reference(crypto::MontgomeryCtx& ctx,
                           const std::uint32_t* a, const std::uint32_t* b,
                           std::uint32_t* out, std::uint32_t* scratch) {
  ctx.mont_mul_into(a, b, out, scratch);
}

void pinned_adx_kernel(const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* n, std::uint64_t n0inv,
                       std::uint64_t* out, std::uint64_t* scratch) {
  crypto::mont_mul64_adx<8>(a, b, n, n0inv, out, scratch);
}

void adx_through_the_context(crypto::MontgomeryCtx& ctx,
                             const std::uint64_t* a, const std::uint64_t* b,
                             const std::uint64_t* n, std::uint64_t n0inv,
                             std::uint64_t* out, std::uint64_t* scratch) {
  ctx.mont_mul64_adx_(a, b, n, n0inv, out, scratch);
}

}  // namespace worm
