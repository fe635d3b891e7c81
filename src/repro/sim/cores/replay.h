/* Shared pieces of the compiled replay cores: the hash functions of
 * repro.common.hashing, and the lazily flushed global-history register
 * of repro.common.hashing.GlobalHistoryRegister as BLBP and ITTAGE keep
 * it.
 */
#ifndef REPRO_REPLAY_H
#define REPRO_REPLAY_H

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN64 0x9E3779B97F4A7C15ULL

/* repro.trace.record.BranchType codes the cores dispatch on. */
#define BRANCH_CONDITIONAL 0
#define BRANCH_INDIRECT_JUMP 3
#define BRANCH_INDIRECT_CALL 4

/* Pending bits that make GlobalHistoryRegister.push flush. */
#define GHR_FLUSH_BITS 1024

/* repro.common.hashing.stable_hash64 (the splitmix64 finalizer). */
static inline uint64_t stable_hash64(uint64_t value)
{
    value += GOLDEN64;
    value ^= value >> 30;
    value *= 0xBF58476D1CE4E5B9ULL;
    value ^= value >> 27;
    value *= 0x94D049BB133111EBULL;
    value ^= value >> 31;
    return value;
}

/* repro.common.hashing.mix_pc. */
static inline uint64_t mix_pc(uint64_t pc, uint64_t salt)
{
    return stable_hash64((pc >> 2) ^ (salt * GOLDEN64));
}

/* (1 << bits) - 1, saturating at 64 bits. */
static inline uint64_t low_mask(int64_t bits)
{
    return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

/* repro.common.hashing.fold_int over a multiword value: the XOR of the
 * `width`-bit chunks of its low `total_bits` bits. */
static inline uint64_t fold_int(
    const uint64_t *words, int64_t nwords, int64_t total_bits, int64_t width)
{
    const uint64_t mask = low_mask(width);
    uint64_t folded = 0;
    for (int64_t start = 0; start < total_bits; start += width) {
        const int64_t word = start >> 6;
        const int64_t shift = start & 63;
        if (word >= nwords)
            break;
        uint64_t chunk = words[word] >> shift;
        if (shift && word + 1 < nwords)
            chunk |= words[word + 1] << (64 - shift);
        if (total_bits - start < 64)
            chunk &= (1ULL << (total_bits - start)) - 1;
        folded ^= chunk & mask;
    }
    return folded;
}

/* One interval fold [start, end) of the history, `width` bits wide. */
typedef struct {
    int64_t start;
    int64_t end;
    int64_t width;
    int64_t out;        /* (end - start) % width: where a leaving bit lands */
    uint64_t mask;
} ghr_fold_t;

/* GlobalHistoryRegister: pushes are shifts, and a flush absorbs every
 * pending bit into every fold in one closed-form step.
 *
 * Pushed bits live in a ring of words: stream bit i (0 = the oldest)
 * sits at ring bit (~i) mod size, so history position p (0 = the most
 * recent bit) sits at ring bit (p - n) mod size, and a run of history
 * positions is a run of ring bits, lowest position lowest.  Positions
 * older than the stream read zero, as the masked register's do.  The
 * ring is sized past twice the deepest read, so those zero words are
 * never overwritten while they can still be read.
 */
typedef struct {
    uint64_t *ring;
    uint64_t ring_mask;         /* size - 1, in bits */
    int64_t n;                  /* stream bits pushed */
    int64_t flushed_at;         /* n at the last flush */
    int64_t capacity;
    int64_t count;
    ghr_fold_t *folds;
    uint64_t *values;           /* (count,) caller's buffer: the folds as
                                 * of the last flush, in/out */
} ghr_t;

/* `bits` (at most 64) history bits from position `position` up. */
static inline uint64_t ghr_slice(const ghr_t *g, int64_t position,
                                 int64_t bits)
{
    const uint64_t at = ((uint64_t)position - (uint64_t)g->n) & g->ring_mask;
    const uint64_t words_mask = g->ring_mask >> 6;
    const uint64_t word = at >> 6;
    const unsigned shift = (unsigned)(at & 63);
    uint64_t value = g->ring[word] >> shift;
    if (shift)
        value |= g->ring[(word + 1) & words_mask] << (64 - shift);
    return value & low_mask(bits);
}

/* fold_int of the `bits`-long history slice from `position` up. */
static inline uint64_t ghr_fold_slice(const ghr_t *g, int64_t position,
                                      int64_t bits, int64_t width)
{
    uint64_t folded = 0;
    for (int64_t offset = 0; offset < bits; offset += width) {
        const int64_t chunk = bits - offset < width ? bits - offset : width;
        folded ^= ghr_slice(g, position + offset, chunk);
    }
    return folded;
}

static inline uint64_t rotate_left(uint64_t value, int64_t by, int64_t width,
                                   uint64_t mask)
{
    return by ? ((value << by) | (value >> (width - by))) & mask : value;
}

/* GlobalHistoryRegister.flush: with m pending bits, each fold becomes
 *     rot_m(fold) ^ fold(E) ^ rot_out(fold(L))
 * for the entering slice E = [start, start + m) and the leaving slice
 * L = [end, end + m) of the history. */
static inline void ghr_flush(ghr_t *g)
{
    const int64_t m = g->n - g->flushed_at;
    if (!m)
        return;
    for (int64_t i = 0; i < g->count; ++i) {
        const ghr_fold_t *f = &g->folds[i];
        uint64_t value = rotate_left(g->values[i], m % f->width, f->width,
                                     f->mask);
        value ^= ghr_fold_slice(g, f->start, m, f->width);
        value ^= rotate_left(ghr_fold_slice(g, f->end, m, f->width),
                             f->out, f->width, f->mask);
        g->values[i] = value;
    }
    g->flushed_at = g->n;
}

static inline void ghr_push_bit(ghr_t *g, uint64_t bit)
{
    const uint64_t at = ~(uint64_t)g->n & g->ring_mask;
    uint64_t *word = &g->ring[at >> 6];
    *word = (*word & ~(1ULL << (at & 63))) | (bit << (at & 63));
    g->n += 1;
}

/* GlobalHistoryRegister.push of `count` bits, oldest first. */
static inline void ghr_push(ghr_t *g, uint64_t bits, int64_t count)
{
    for (int64_t j = count - 1; j >= 0; --j)
        ghr_push_bit(g, (bits >> j) & 1);
    if (g->n - g->flushed_at >= GHR_FLUSH_BITS)
        ghr_flush(g);
}

/* Words holding an unmasked register: capacity plus pending bits. */
static inline int64_t ghr_words(int64_t capacity)
{
    return (capacity + GHR_FLUSH_BITS + 63) / 64 + 1;
}

/* Load the register from its Python state: `words` is the unmasked
 * `_ghist` (little-endian, capacity + pending bits), `values` the fold
 * values, and `spans` holds (start, end, width) per fold; `burst` is
 * the most bits one push adds.  Returns 0, or -1 when memory runs out.
 */
static inline int ghr_init(
    ghr_t *g, int64_t capacity, int64_t pending, const uint64_t *words,
    int64_t count, const int64_t *spans, uint64_t *values, int64_t burst)
{
    uint64_t size = 128;
    while (size < 2 * (uint64_t)(capacity + GHR_FLUSH_BITS + burst + 64))
        size <<= 1;
    g->ring = calloc(size / 64, sizeof(uint64_t));
    g->folds = malloc(sizeof(ghr_fold_t) * (size_t)(count ? count : 1));
    if (!g->ring || !g->folds) {
        free(g->ring);
        free(g->folds);
        return -1;
    }
    g->ring_mask = size - 1;
    g->capacity = capacity;
    g->count = count;
    g->values = values;
    for (int64_t i = 0; i < count; ++i) {
        ghr_fold_t *f = &g->folds[i];
        f->start = spans[3 * i];
        f->end = spans[3 * i + 1];
        f->width = spans[3 * i + 2];
        f->out = (f->end - f->start) % f->width;
        f->mask = low_mask(f->width);
    }
    /* The register as last flushed, which the folds cover, then the
     * pending bits. */
    g->n = 0;
    for (int64_t p = capacity + pending - 1; p >= 0; --p)
        ghr_push_bit(g, (words[p >> 6] >> (p & 63)) & 1);
    g->flushed_at = capacity;
    return 0;
}

static inline int64_t ghr_pending(const ghr_t *g)
{
    return g->n - g->flushed_at;
}

static inline void ghr_free(ghr_t *g)
{
    free(g->ring);
    free(g->folds);
}

/* Store the unmasked register (capacity + pending bits) into `words`
 * and release the ring. */
static inline void ghr_finish(ghr_t *g, uint64_t *words)
{
    const int64_t total = g->capacity + ghr_pending(g);
    for (int64_t w = 0; w < ghr_words(g->capacity); ++w) {
        const int64_t bits = total - 64 * w;
        words[w] = bits > 0 ? ghr_slice(g, 64 * w, bits < 64 ? bits : 64)
                            : 0;
    }
    ghr_free(g);
}

#endif
