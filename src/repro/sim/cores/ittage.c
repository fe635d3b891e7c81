/* Whole-lane ITTAGE replay (repro.predictors.ittage.ITTAGE).
 *
 * Walks the trace record by record in retirement order, exactly the
 * scalar engine's call sequence: every record shifts the global history
 * (a conditional its outcome, an indirect branch the low bits of its
 * target's hash, any other branch a constant 1) and two PC bits into
 * the path register; an indirect branch first flushes the history,
 * hashes the PC with each table's index, tag and tag2 folds and the
 * path into per-table indices and tags, then runs predict_target/train:
 * provider/altpred selection (the two longest hitting tables), the
 * weak-provider use-alt rule, the use-alt meta-counter, usefulness and
 * confidence updates, base-table hysteresis, allocation with Seznec's
 * geometric skew, and the periodic usefulness reset.  The allocation
 * tie-breaker draws from the predictor's own numpy Generator through
 * `rng`, so the random stream stays the scalar path's.
 */
#include "replay.h"

typedef double (*rng_fn)(void);

/* Field order mirrors repro.sim.kernel_ittage._ITTAGEState. */
typedef struct {
    int64_t num_tagged;
    int64_t entries;            /* per tagged table */
    int64_t base_entries;
    int64_t index_bits;
    int64_t path_bits;
    int64_t target_bits;        /* hashed-target bits per indirect */
    int64_t conf_max;
    int64_t useful_max;
    int64_t use_alt_min;
    int64_t use_alt_max;
    int64_t u_reset_period;
    int64_t history_bits;
    int64_t pending;            /* in/out: the register's pending bits */
    int64_t use_alt;            /* in/out */
    int64_t updates;            /* in/out */
    uint64_t path;              /* in/out */
    const int64_t *tag_bits;    /* (num_tagged,) */
    const int64_t *fold_spans;  /* (3 * num_tagged, 3): index, tag, tag2 */
    uint64_t *folds;            /* (3 * num_tagged,) in/out, as last flushed */
    uint64_t *ghist;            /* ghr_words(history_bits) in/out */
    int64_t *tags;              /* (num_tagged, entries) each */
    uint64_t *targets;
    int8_t *ctr;
    int8_t *useful;
    uint8_t *valid;
    uint64_t *base_targets;     /* (base_entries,) each */
    int8_t *base_ctr;
    uint8_t *base_valid;
    uint64_t *predictions;      /* (branches,) */
    uint8_t *valid_out;         /* (branches,) */
} ittage_t;

/* ITTAGE._push: `count` history bits, oldest first, and the path. */
static void ittage_push(ittage_t *s, ghr_t *ghr, uint64_t bits,
                        int64_t count, uint64_t pc)
{
    ghr_push(ghr, bits, count);
    s->path = ((s->path << 2) | ((pc >> 2) & 3)) & low_mask(s->path_bits);
}

/* ITTAGE.on_retired's hashed-target push: hash bit 0 goes in first. */
static uint64_t reversed_bits(uint64_t value, int64_t count)
{
    uint64_t out = 0;
    for (int64_t j = 0; j < count; ++j)
        out |= ((value >> j) & 1) << (count - 1 - j);
    return out;
}

/* The first table above `from` whose entry at `indices` is not useful. */
static int64_t free_table(const ittage_t *s, const int64_t *indices,
                          int64_t from)
{
    for (int64_t t = from + 1; t < s->num_tagged; ++t) {
        if (s->useful[t * s->entries + indices[t]] == 0)
            return t;
    }
    return -1;
}

static void ittage_branch(ittage_t *s, const ghr_t *ghr, uint64_t pc,
                          uint64_t target, int64_t branch, rng_fn rng)
{
    const int64_t num_tagged = s->num_tagged;
    const int64_t entries = s->entries;
    int64_t indices[num_tagged > 0 ? num_tagged : 1];
    int64_t tags[num_tagged > 0 ? num_tagged : 1];

    /* _tagged_index / _tagged_tag. */
    const uint64_t path = s->path & low_mask(s->path_bits < 16
                                             ? s->path_bits : 16);
    const uint64_t index_mask = low_mask(s->index_bits);
    for (int64_t t = 0; t < num_tagged; ++t) {
        const uint64_t mixed = mix_pc(pc, (uint64_t)t + 1)
            ^ ghr->values[t] ^ (path >> (t & 3));
        indices[t] = (int64_t)((mixed & index_mask) % (uint64_t)entries);
        const uint64_t tag = mix_pc(pc, 0x7AC + (uint64_t)t)
            ^ ghr->values[num_tagged + t]
            ^ (ghr->values[2 * num_tagged + t] << 1);
        tags[t] = (int64_t)(tag & low_mask(s->tag_bits[t]));
    }

    int64_t provider_t = -1, alt_t = -1;
    for (int64_t t = num_tagged - 1; t >= 0; --t) {
        const int64_t slot = t * entries + indices[t];
        if (s->valid[slot] && s->tags[slot] == tags[t]) {
            if (provider_t < 0) {
                provider_t = t;
            } else {
                alt_t = t;
                break;
            }
        }
    }

    const int64_t bi = (int64_t)(mix_pc(pc, 0) % (uint64_t)s->base_entries);
    const int base_present = s->base_valid[bi] != 0;

    uint64_t provider_target = 0;
    int64_t provider_ctr = 0;
    int64_t pslot = -1;
    if (provider_t >= 0) {
        pslot = provider_t * entries + indices[provider_t];
        provider_target = s->targets[pslot];
        provider_ctr = s->ctr[pslot];
    }
    int has_alt = 0;
    uint64_t alt_target = 0;
    if (alt_t >= 0) {
        has_alt = 1;
        alt_target = s->targets[alt_t * entries + indices[alt_t]];
    } else if (base_present) {
        has_alt = 1;
        alt_target = s->base_targets[bi];
    }

    int has_final = 0;
    uint64_t final = 0;
    if (provider_t < 0) {
        if (base_present) {
            has_final = 1;
            final = s->base_targets[bi];
        }
    } else if (provider_ctr == 0 && s->use_alt >= 0 && has_alt) {
        has_final = 1;
        final = alt_target;
    } else {
        has_final = 1;
        final = provider_target;
    }
    if (has_final) {
        s->predictions[branch] = final;
        s->valid_out[branch] = 1;
    }
    const int mispredicted = !has_final || final != target;

    if (provider_t >= 0) {
        const int provider_correct = provider_target == target;
        const int alt_correct = has_alt && alt_target == target;
        const int differ = !has_alt || provider_target != alt_target;
        if (provider_ctr == 0 && differ) {
            if (alt_correct && !provider_correct) {
                if (s->use_alt < s->use_alt_max)
                    s->use_alt += 1;
            } else if (provider_correct && !alt_correct) {
                if (s->use_alt > s->use_alt_min)
                    s->use_alt -= 1;
            }
        }
        if (differ) {
            if (provider_correct && s->useful[pslot] < s->useful_max)
                s->useful[pslot] += 1;
            else if (!provider_correct && s->useful[pslot] > 0)
                s->useful[pslot] -= 1;
        }
        if (provider_correct) {
            if (s->ctr[pslot] < s->conf_max)
                s->ctr[pslot] += 1;
        } else if (s->ctr[pslot] > 0) {
            s->ctr[pslot] -= 1;
        } else {
            s->targets[pslot] = target;
            s->ctr[pslot] = 1;
        }
    }

    if (!base_present) {
        s->base_valid[bi] = 1;
        s->base_targets[bi] = target;
        s->base_ctr[bi] = 1;
    } else if (s->base_targets[bi] == target) {
        if (s->base_ctr[bi] < s->conf_max)
            s->base_ctr[bi] += 1;
    } else if (s->base_ctr[bi] > 0) {
        s->base_ctr[bi] -= 1;
    } else {
        s->base_targets[bi] = target;
        s->base_ctr[bi] = 1;
    }

    if (mispredicted) {
        const int64_t first = free_table(s, indices, provider_t);
        if (first < 0) {
            for (int64_t t = provider_t + 1; t < num_tagged; ++t) {
                const int64_t slot = t * entries + indices[t];
                if (s->useful[slot] > 0)
                    s->useful[slot] -= 1;
            }
        } else {
            /* Seznec's geometric skew over the free tables, in the
             * scalar loop's exact RNG draw order. */
            int64_t chosen = first;
            for (int64_t next = free_table(s, indices, first); next >= 0;
                 next = free_table(s, indices, next)) {
                if (rng() < 0.5)
                    break;
                chosen = next;
            }
            const int64_t slot = chosen * entries + indices[chosen];
            s->valid[slot] = 1;
            s->tags[slot] = tags[chosen];
            s->targets[slot] = target;
            s->ctr[slot] = 0;
            s->useful[slot] = 0;
        }
    }

    s->updates += 1;
    if (s->updates % s->u_reset_period == 0)
        memset(s->useful, 0, (size_t)(num_tagged * entries));
}

/* Replay the state over the trace's columns.  Returns 0, or -1 when
 * memory for the history ring runs out (nothing is replayed). */
int64_t ittage_replay(
    int64_t records,
    const uint8_t *types,
    const uint64_t *pcs,
    const uint8_t *takens,
    const uint64_t *targets,
    ittage_t *s,
    rng_fn rng)
{
    ghr_t ghr;
    if (ghr_init(&ghr, s->history_bits, s->pending, s->ghist,
                 3 * s->num_tagged, s->fold_spans, s->folds,
                 s->target_bits))
        return -1;
    int64_t branch = 0;
    for (int64_t r = 0; r < records; ++r) {
        const uint8_t type = types[r];
        const uint64_t pc = pcs[r];
        if (type == BRANCH_CONDITIONAL) {
            ittage_push(s, &ghr, takens[r] != 0, 1, pc);
        } else if (type == BRANCH_INDIRECT_JUMP
                   || type == BRANCH_INDIRECT_CALL) {
            ghr_flush(&ghr);
            ittage_branch(s, &ghr, pc, targets[r], branch, rng);
            branch += 1;
            const uint64_t hashed = stable_hash64(targets[r])
                & low_mask(s->target_bits);
            ittage_push(s, &ghr, reversed_bits(hashed, s->target_bits),
                        s->target_bits, pc);
        } else {
            ittage_push(s, &ghr, 1, 1, pc);
        }
    }
    s->pending = ghr_pending(&ghr);
    ghr_finish(&ghr, s->ghist);
    return 0;
}
