"""Compiled replay cores for the columnar kernels.

The columnar kernels (:mod:`repro.sim.kernel` and friends) split a
trace into trace-pure precomputation (folds, local registers, IBTB
candidate sets, ITTAGE index/tag planes, VPC virtual-PC tables — all
batched numpy) and a prediction-dependent replay over the mutable
predictor state.  The replay is the only part that is inherently
sequential, and this module provides it: C functions that walk the
branch stream in retirement order over the precomputed tensors,
mutating the predictor state with the scalar loop's integer arithmetic.

Three entry points live in one shared library:

``blbp_replay_many``
    The BLBP weight/θ recurrence, advanced lane-parallel for one or
    more BLBP lanes sharing one precompute (same IBTB candidate tensors
    and ``differs``/``desired`` planes); each branch touches every lane
    before the next branch, with per-lane weight banks and θ
    controllers, so lane ``i`` evolves exactly as a solo replay would.
    A solo BLBP run is a one-lane call.
``ittage_replay``
    ITTAGE provider/altpred selection, confidence/usefulness counters
    and allocation over precomputed per-(branch, table) index/tag
    planes.  The allocation tie-breaker calls back into the
    predictor's own numpy Generator so the RNG stream stays
    bit-identical with the scalar path.
``vpc_replay``
    VPC's virtual-PC iteration over a precomputed vpca/slot/tag table,
    together with its shared multiperspective perceptron
    (:class:`repro.cond.mpp.MultiperspectivePerceptron`): weight
    tables, global/path/local histories and adaptive threshold arrive
    as arrays and are advanced in C, so a VPC replay never re-enters
    Python.

The source is compiled on first use with the system C compiler at
``-O3`` (the dot-product and update inner loops are written so the
compiler auto-vectorizes them) into a content-addressed shared library
under the user cache directory and loaded with :mod:`ctypes` — no
build-time dependency, no new packages.  There is no interpreted
fallback: when the library cannot be built or loaded,
:func:`unavailable_reason` says why (no compiler, the compiler's exit
status and first stderr line, or the ``dlopen`` error), and
:func:`repro.sim.kernel.columnar_support` reports that reason so
callers run the scalar oracle instead.  Concurrent builders (dist
worker pools on one node) race benignly: each compiles into a private
temp file and atomically publishes with ``os.replace``, and a builder
whose own compile fails re-checks for a concurrently published library
before giving up.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, Optional

__all__ = [
    "available",
    "load",
    "unavailable_reason",
    "cache_dir",
    "RNG_CALLBACK",
]

#: The one callback crossing the C boundary: ITTAGE's allocation
#: tie-breaker draws from the predictor's numpy Generator.
RNG_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_double)

_SOURCE = r"""
#include <stdint.h>

typedef double (*rng_fn)(void);

/* Retirement-order replay of the BLBP weight/θ recurrence, for one or
 * more lanes sharing one precompute.
 *
 * Everything prediction-independent (row indices, candidate sets,
 * desired/active bit planes) arrives precomputed; the loop performs
 * only the prediction-dependent arithmetic: the fused int8 weight-bank
 * gather + transfer-LUT dot product, candidate scoring (first-max
 * argmax), the per-bit adaptive-θ controllers, and the masked
 * saturating ±1 weight update.  Integer-for-integer identical to
 * BLBP.predict_target/train.
 *
 * The shared planes (candidate sets, differs/desired) are identical
 * across lanes by construction — the kernel only groups lanes whose
 * shared-precompute artifacts are the same objects.  Per-lane state
 * (weight banks, θ/counter controllers, LUT, geometry) arrives as
 * pointer/scalar arrays indexed by lane.  Each branch advances every
 * lane before the next branch; lanes are independent, so each lane's
 * state trajectory is exactly its one-lane trajectory, while the
 * shared planes stay hot in cache across the lane loop.
 */
void blbp_replay_many(
    int64_t lanes,
    int64_t branches,
    int64_t bits,
    int64_t tmax,
    const int64_t *set_ids,         /* shared (branches,) */
    const uint64_t *padded_targets, /* shared (sets, tmax) */
    const int64_t *set_sizes,       /* shared (sets,) */
    const int32_t *bit_matrices,    /* shared (sets, tmax, bits) */
    const uint8_t *differs,         /* shared (branches, bits) */
    const uint8_t *desired,         /* shared (branches, bits) */
    const int64_t *banks,           /* (lanes,) */
    const int64_t *table_rows,      /* (lanes,) */
    const int64_t *const *rows,     /* lane -> (branches, banks[l]) */
    const int32_t *const *luts,     /* lane -> (2 * lut_offsets[l] + 1,) */
    const int64_t *lut_offsets,     /* (lanes,) */
    int8_t *const *weights,         /* lane -> (banks, table_rows, bits) */
    const int64_t *magnitudes,      /* (lanes,) */
    int64_t *const *thetas,         /* lane -> (bits,) */
    int64_t *const *counters,       /* lane -> (bits,) */
    const int64_t *cmaxs,           /* (lanes,) */
    const int64_t *cmins,           /* (lanes,) */
    const int64_t *adaptives,       /* (lanes,) */
    uint64_t *const *predictions,   /* lane -> (branches,) zeroed */
    int64_t *trained)               /* (lanes,) zero-initialised */
{
    int32_t yout[bits];
    uint8_t mask[bits];
    for (int64_t b = 0; b < branches; ++b) {
        const int64_t sid = set_ids[b];
        const int64_t size = set_sizes[sid];
        const int32_t *mat = bit_matrices + sid * tmax * bits;
        const uint8_t *diff = differs + b * bits;
        const uint8_t *des = desired + b * bits;
        int any_active = 0;
        for (int64_t k = 0; k < bits; ++k)
            any_active |= diff[k];

        for (int64_t l = 0; l < lanes; ++l) {
            const int64_t nb = banks[l];
            const int64_t trows = table_rows[l];
            const int64_t *brow = rows[l] + b * nb;
            const int32_t *lut = luts[l];
            const int64_t lut_offset = lut_offsets[l];
            int8_t *wbase = weights[l];

            for (int64_t k = 0; k < bits; ++k)
                yout[k] = 0;
            for (int64_t n = 0; n < nb; ++n) {
                const int8_t *w = wbase + (n * trows + brow[n]) * bits;
                for (int64_t k = 0; k < bits; ++k)
                    yout[k] += lut[(int64_t)w[k] + lut_offset];
            }

            if (size > 0) {
                int64_t best = 0;
                int32_t best_score = INT32_MIN;
                for (int64_t t = 0; t < size; ++t) {
                    const int32_t *mrow = mat + t * bits;
                    int32_t score = 0;
                    for (int64_t k = 0; k < bits; ++k)
                        score += mrow[k] * yout[k];
                    if (score > best_score) {
                        best_score = score;
                        best = t;
                    }
                }
                predictions[l][b] = padded_targets[sid * tmax + best];
            }

            if (!any_active)
                continue;

            int64_t *theta = thetas[l];
            int64_t *counter = counters[l];
            const int64_t counter_max = cmaxs[l];
            const int64_t counter_min = cmins[l];
            const int64_t adaptive = adaptives[l];
            int any_mask = 0;
            for (int64_t k = 0; k < bits; ++k) {
                mask[k] = 0;
                if (!diff[k])
                    continue;
                const int32_t value = yout[k];
                const int correct = (value >= 0) == (des[k] != 0);
                const int32_t mag = value >= 0 ? value : -value;
                if (adaptive) {
                    int64_t current = theta[k];
                    if (correct) {
                        if (mag >= current)
                            continue;
                        counter[k] -= 1;
                        if (counter[k] <= counter_min) {
                            counter[k] = 0;
                            if (current > 1) {
                                current -= 1;
                                theta[k] = current;
                            }
                        }
                        mask[k] = mag < current;
                    } else {
                        counter[k] += 1;
                        if (counter[k] >= counter_max) {
                            counter[k] = 0;
                            theta[k] = current + 1;
                        }
                        mask[k] = 1;
                    }
                } else {
                    mask[k] = !correct || mag < theta[k];
                }
                any_mask |= mask[k];
            }
            if (!any_mask)
                continue;

            const int64_t magnitude = magnitudes[l];
            for (int64_t k = 0; k < bits; ++k)
                trained[l] += mask[k];
            for (int64_t n = 0; n < nb; ++n) {
                int8_t *w = wbase + (n * trows + brow[n]) * bits;
                for (int64_t k = 0; k < bits; ++k) {
                    if (!mask[k])
                        continue;
                    int32_t value = (int32_t)w[k] + (des[k] ? 1 : -1);
                    if (value > magnitude)
                        value = (int32_t)magnitude;
                    if (value < -magnitude)
                        value = (int32_t)-magnitude;
                    w[k] = (int8_t)value;
                }
            }
        }
    }
}

/* Retirement-order ITTAGE replay over precomputed index/tag planes.
 *
 * Statement-for-statement the scalar predict_target/train pair with
 * the hash pipeline stripped out: provider/altpred selection (highest
 * two hitting tables), the weak-provider use-alt rule, the use-alt
 * meta-counter, usefulness and confidence updates, base-table
 * hysteresis, allocation with Seznec's geometric skew (drawing from
 * the predictor's own RNG through `rng` so the stream is shared with
 * the scalar path), and the periodic usefulness reset.
 */
void ittage_replay(
    int64_t branches,
    int64_t num_tagged,
    int64_t entries,
    int64_t base_entries,
    const int64_t *idx,        /* (branches, num_tagged) */
    const int64_t *tagv,       /* (branches, num_tagged) */
    const int64_t *base_idx,   /* (branches,) */
    const uint64_t *targets,   /* (branches,) */
    int64_t *tab_tags,         /* (num_tagged, entries) */
    uint64_t *tab_targets,
    int8_t *tab_ctr,
    int8_t *tab_useful,
    uint8_t *tab_valid,
    uint64_t *base_targets,    /* (base_entries,) */
    int8_t *base_ctr,
    uint8_t *base_valid,
    int64_t conf_max,
    int64_t useful_max,
    int64_t use_alt_min,
    int64_t use_alt_max,
    int64_t u_reset_period,
    int64_t *state,            /* [use_alt, updates] in/out */
    rng_fn rng,
    uint64_t *predictions,     /* (branches,) zero-initialised */
    uint8_t *valid_out)        /* (branches,) zero-initialised */
{
    int64_t use_alt = state[0];
    int64_t updates = state[1];
    for (int64_t b = 0; b < branches; ++b) {
        const int64_t *indices = idx + b * num_tagged;
        const int64_t *tags = tagv + b * num_tagged;
        const uint64_t target = targets[b];

        int64_t provider_t = -1, provider_i = -1;
        int64_t alt_t = -1, alt_i = -1;
        for (int64_t t = num_tagged - 1; t >= 0; --t) {
            const int64_t slot = t * entries + indices[t];
            if (tab_valid[slot] && tab_tags[slot] == tags[t]) {
                if (provider_t < 0) {
                    provider_t = t;
                    provider_i = indices[t];
                } else {
                    alt_t = t;
                    alt_i = indices[t];
                    break;
                }
            }
        }

        const int64_t bi = base_idx[b];
        const int base_present = base_valid[bi];

        uint64_t provider_target = 0;
        int64_t provider_ctr = 0;
        if (provider_t >= 0) {
            provider_target = tab_targets[provider_t * entries + provider_i];
            provider_ctr = tab_ctr[provider_t * entries + provider_i];
        }
        int has_alt = 0;
        uint64_t alt_target = 0;
        if (alt_t >= 0) {
            has_alt = 1;
            alt_target = tab_targets[alt_t * entries + alt_i];
        } else if (base_present) {
            has_alt = 1;
            alt_target = base_targets[bi];
        }

        int has_final = 0;
        uint64_t final = 0;
        if (provider_t < 0) {
            if (base_present) {
                has_final = 1;
                final = base_targets[bi];
            }
        } else if (provider_ctr == 0 && use_alt >= 0 && has_alt) {
            has_final = 1;
            final = alt_target;
        } else {
            has_final = 1;
            final = provider_target;
        }
        if (has_final) {
            predictions[b] = final;
            valid_out[b] = 1;
        }
        const int mispredicted = !has_final || final != target;

        if (provider_t >= 0) {
            const int64_t pslot = provider_t * entries + provider_i;
            const int provider_correct = provider_target == target;
            const int alt_correct = has_alt && alt_target == target;
            const int differ = !has_alt || provider_target != alt_target;
            if (provider_ctr == 0 && differ) {
                if (alt_correct && !provider_correct) {
                    if (use_alt < use_alt_max)
                        use_alt += 1;
                } else if (provider_correct && !alt_correct) {
                    if (use_alt > use_alt_min)
                        use_alt -= 1;
                }
            }
            if (differ) {
                if (provider_correct && tab_useful[pslot] < useful_max)
                    tab_useful[pslot] += 1;
                else if (!provider_correct && tab_useful[pslot] > 0)
                    tab_useful[pslot] -= 1;
            }
            if (provider_correct) {
                if (tab_ctr[pslot] < conf_max)
                    tab_ctr[pslot] += 1;
            } else if (tab_ctr[pslot] > 0) {
                tab_ctr[pslot] -= 1;
            } else {
                tab_targets[pslot] = target;
                tab_ctr[pslot] = 1;
            }
        }

        if (!base_present) {
            base_valid[bi] = 1;
            base_targets[bi] = target;
            base_ctr[bi] = 1;
        } else if (base_targets[bi] == target) {
            if (base_ctr[bi] < conf_max)
                base_ctr[bi] += 1;
        } else if (base_ctr[bi] > 0) {
            base_ctr[bi] -= 1;
        } else {
            base_targets[bi] = target;
            base_ctr[bi] = 1;
        }

        if (mispredicted) {
            int64_t first = -1, second = -1;
            for (int64_t t = provider_t + 1; t < num_tagged; ++t) {
                if (tab_useful[t * entries + indices[t]] == 0) {
                    if (first < 0) {
                        first = t;
                    } else {
                        second = t;
                        break;
                    }
                }
            }
            if (first < 0) {
                for (int64_t t = provider_t + 1; t < num_tagged; ++t) {
                    const int64_t slot = t * entries + indices[t];
                    if (tab_useful[slot] > 0)
                        tab_useful[slot] -= 1;
                }
            } else {
                /* Seznec's geometric skew over the free candidates, in
                 * the scalar loop's exact RNG draw order. */
                int64_t chosen = first;
                if (second >= 0) {
                    int64_t candidate = second;
                    for (;;) {
                        if (rng() < 0.5)
                            break;
                        chosen = candidate;
                        candidate = -1;
                        for (int64_t t = chosen + 1; t < num_tagged; ++t) {
                            if (tab_useful[t * entries + indices[t]] == 0) {
                                candidate = t;
                                break;
                            }
                        }
                        if (candidate < 0)
                            break;
                    }
                }
                const int64_t slot = chosen * entries + indices[chosen];
                tab_valid[slot] = 1;
                tab_tags[slot] = tags[chosen];
                tab_targets[slot] = target;
                tab_ctr[slot] = 0;
                tab_useful[slot] = 0;
            }
        }

        updates += 1;
        if (updates % u_reset_period == 0) {
            const int64_t total = num_tagged * entries;
            for (int64_t s = 0; s < total; ++s)
                tab_useful[s] = 0;
        }
    }
    state[0] = use_alt;
    state[1] = updates;
}

/* VPC's shared conditional predictor: repro.cond.mpp's
 * MultiperspectivePerceptron, integer for integer.
 *
 * The global history is a little-endian array of 64-bit words (bit 0
 * of word 0 is the most recent outcome), the path history its entries
 * most recent first (`path_count` of them may be fewer than the depth
 * early in a trace), and the local histories one word per register.
 * Feature kinds: 0 bias, 1 global-history segment, 2 path fold,
 * 3 local history.
 */
typedef struct {
    int64_t features;
    const int64_t *kinds;      /* (features,) */
    const int64_t *params;     /* (features,) */
    int64_t index_bits;
    uint64_t index_mask;
    int64_t rows;
    int8_t *tables;            /* (features, rows) */
    int64_t weight_max;
    int64_t weight_min;
    uint64_t *ghist;           /* (ghist_words,) */
    int64_t ghist_words;
    int64_t ghist_capacity;
    int64_t *path;             /* (path_depth,) */
    int64_t path_depth;
    int64_t path_count;
    int64_t path_bits;
    uint64_t *local;           /* (local_entries,) */
    int64_t local_entries;
    int64_t local_bits;
    int64_t theta;
    int64_t counter;
    int64_t counter_max;
    int64_t counter_min;
} mpp_t;

/* repro.common.hashing.stable_hash64 (the splitmix64 finalizer). */
static uint64_t stable_hash64(uint64_t value)
{
    value += 0x9E3779B97F4A7C15ULL;
    value ^= value >> 30;
    value *= 0xBF58476D1CE4E5B9ULL;
    value ^= value >> 27;
    value *= 0x94D049BB133111EBULL;
    value ^= value >> 31;
    return value;
}

/* repro.common.hashing.mix_pc with salt 0. */
static uint64_t mix_pc(uint64_t pc)
{
    return stable_hash64(pc >> 2);
}

/* repro.common.hashing.fold_int over a multiword value: the XOR of the
 * `width`-bit chunks of its low `total_bits` bits. */
static uint64_t fold_int(
    const uint64_t *words, int64_t nwords, int64_t total_bits, int64_t width)
{
    const uint64_t mask = width >= 64 ? ~0ULL : (1ULL << width) - 1;
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

/* PathHistory.folded: the newest `depth` entries packed oldest-lowest,
 * folded to the index width. */
static uint64_t mpp_path_fold(const mpp_t *m, int64_t depth)
{
    const int64_t nwords = (m->path_depth * m->path_bits + 63) / 64;
    uint64_t packed[nwords];
    const int64_t n = depth < m->path_count ? depth : m->path_count;
    for (int64_t w = 0; w < nwords; ++w)
        packed[w] = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t position = (n - 1 - i) * m->path_bits;
        const int64_t shift = position & 63;
        const uint64_t entry = (uint64_t)m->path[i];
        packed[position >> 6] |= entry << shift;
        if (shift + m->path_bits > 64)
            packed[(position >> 6) + 1] |= entry >> (64 - shift);
    }
    return fold_int(packed, nwords, depth * m->path_bits, m->index_bits);
}

/* MultiperspectivePerceptron._indices. */
static void mpp_indices(const mpp_t *m, uint64_t pc, int64_t *indices)
{
    const uint64_t pc_hash = mix_pc(pc);
    for (int64_t f = 0; f < m->features; ++f) {
        uint64_t folded = 0;
        switch (m->kinds[f]) {
        case 1:
            folded = fold_int(
                m->ghist, m->ghist_words, m->params[f], m->index_bits);
            break;
        case 2:
            folded = mpp_path_fold(m, m->params[f]);
            break;
        case 3: {
            const uint64_t local = m->local[pc_hash % m->local_entries];
            folded = fold_int(&local, 1, m->local_bits, m->index_bits);
            break;
        }
        default:
            break;
        }
        const uint64_t mixed = f + 3 < 64 ? pc_hash >> (f + 3) : 0;
        indices[f] = (int64_t)((pc_hash ^ mixed ^ folded) & m->index_mask);
    }
}

/* MultiperspectivePerceptron._sum. */
static int64_t mpp_sum(const mpp_t *m, const int64_t *indices)
{
    int64_t total = 0;
    for (int64_t f = 0; f < m->features; ++f)
        total += m->tables[f * m->rows + indices[f]];
    return total;
}

/* MultiperspectivePerceptron._train at precomputed indices, with the
 * AdaptiveThreshold controller. */
static void mpp_train(mpp_t *m, const int64_t *indices, int taken)
{
    const int64_t total = mpp_sum(m, indices);
    const int mispredicted = (total >= 0) != (taken != 0);
    const int below = (total >= 0 ? total : -total) < m->theta;
    if (mispredicted || below) {
        for (int64_t f = 0; f < m->features; ++f) {
            int8_t *weight = m->tables + f * m->rows + indices[f];
            if (taken && *weight < m->weight_max)
                *weight += 1;
            else if (!taken && *weight > m->weight_min)
                *weight -= 1;
        }
    }
    if (mispredicted) {
        m->counter += 1;
        if (m->counter >= m->counter_max) {
            m->counter = 0;
            m->theta += 1;
        }
    } else if (below) {
        m->counter -= 1;
        if (m->counter <= m->counter_min) {
            m->counter = 0;
            if (m->theta > 1)
                m->theta -= 1;
        }
    }
}

/* MultiperspectivePerceptron.predict. */
static int mpp_predict(const mpp_t *m, uint64_t pc, int64_t *indices)
{
    mpp_indices(m, pc, indices);
    return mpp_sum(m, indices) >= 0;
}

/* MultiperspectivePerceptron.train_weights (VPC's virtual branches). */
static void mpp_train_weights(mpp_t *m, uint64_t pc, int taken,
                              int64_t *indices)
{
    mpp_indices(m, pc, indices);
    mpp_train(m, indices, taken);
}

/* The three history pushes of MultiperspectivePerceptron.update. */
static void mpp_push(mpp_t *m, uint64_t pc, int taken)
{
    const int64_t top = m->ghist_words - 1;
    for (int64_t w = top; w > 0; --w)
        m->ghist[w] = (m->ghist[w] << 1) | (m->ghist[w - 1] >> 63);
    m->ghist[0] = (m->ghist[0] << 1) | (uint64_t)(taken != 0);
    const int64_t top_bits = m->ghist_capacity - 64 * top;
    if (top_bits < 64)
        m->ghist[top] &= (1ULL << top_bits) - 1;

    const int64_t keep = m->path_count < m->path_depth
        ? m->path_count : m->path_depth - 1;
    for (int64_t i = keep; i > 0; --i)
        m->path[i] = m->path[i - 1];
    m->path[0] = (int64_t)((pc >> 2) & ((1ULL << m->path_bits) - 1));
    m->path_count = keep + 1;

    uint64_t *local = m->local + mix_pc(pc) % m->local_entries;
    *local = (*local << 1) | (uint64_t)(taken != 0);
    if (m->local_bits < 64)
        *local &= (1ULL << m->local_bits) - 1;
}

/* Event-order VPC replay over a precomputed vpca/slot/tag table.
 *
 * Events interleave real conditionals (kind 0: consult + update the
 * shared conditional predictor, book-keeping its accuracy) with
 * indirect branches (kind 1: the virtual-PC iteration).  All hashing
 * of virtual PCs is precomputed per (static pc, iteration); the BTB's
 * direct-mapped arrays and the multiperspective perceptron's state
 * (weight tables, histories, threshold) are mutated in place, in
 * exactly the scalar call sequence: predict, count, update for a real
 * conditional; predict and train_weights for a virtual branch.
 */
void vpc_replay(
    int64_t events,
    const uint8_t *kinds,      /* (events,) 0 = conditional, 1 = indirect */
    const uint64_t *ev_a,      /* cond: pc; indirect: unique-pc row */
    const uint8_t *ev_taken,   /* (events,) conditionals only */
    const uint64_t *targets,   /* (branches,) by running branch ordinal */
    int64_t max_iter,
    int64_t fallback,
    const uint64_t *vpcas,     /* (unique_pcs * max_iter) */
    const int64_t *slots,
    const int64_t *vtags,
    int64_t *btb_tags,         /* (btb_entries,) */
    uint64_t *btb_targets,
    int64_t *btb_ticks,
    int64_t *counters,         /* [clock, cond_count, cond_misp] in/out */
    const int64_t *mpp_geometry, /* [features, index_bits, weight max,
                                  * weight min, ghist capacity, path
                                  * depth, path bits per pc, local
                                  * entries, local bits, threshold
                                  * counter max, counter min] */
    const int64_t *mpp_kinds,  /* (features,) */
    const int64_t *mpp_params, /* (features,) */
    int8_t *mpp_tables,        /* (features, 1 << index_bits) */
    uint64_t *mpp_ghist,       /* (ceil(capacity / 64),) */
    int64_t *mpp_path,         /* (path depth,) */
    uint64_t *mpp_local,       /* (local entries,) */
    int64_t *mpp_state,        /* [theta, counter, path_count] in/out */
    uint64_t *predictions,     /* (branches,) zero-initialised */
    uint8_t *valid_out)        /* (branches,) zero-initialised */
{
    mpp_t mpp;
    mpp.features = mpp_geometry[0];
    mpp.kinds = mpp_kinds;
    mpp.params = mpp_params;
    mpp.index_bits = mpp_geometry[1];
    mpp.rows = (int64_t)1 << mpp.index_bits;
    mpp.index_mask = (uint64_t)mpp.rows - 1;
    mpp.tables = mpp_tables;
    mpp.weight_max = mpp_geometry[2];
    mpp.weight_min = mpp_geometry[3];
    mpp.ghist = mpp_ghist;
    mpp.ghist_capacity = mpp_geometry[4];
    mpp.ghist_words = (mpp.ghist_capacity + 63) / 64;
    mpp.path = mpp_path;
    mpp.path_depth = mpp_geometry[5];
    mpp.path_bits = mpp_geometry[6];
    mpp.path_count = mpp_state[2];
    mpp.local = mpp_local;
    mpp.local_entries = mpp_geometry[7];
    mpp.local_bits = mpp_geometry[8];
    mpp.counter_max = mpp_geometry[9];
    mpp.counter_min = mpp_geometry[10];
    mpp.theta = mpp_state[0];
    mpp.counter = mpp_state[1];
    mpp_t *m = &mpp;
    int64_t indices[mpp.features];

    int64_t clock = counters[0];
    int64_t cond_count = counters[1];
    int64_t cond_misp = counters[2];
    int64_t branch = 0;
    for (int64_t e = 0; e < events; ++e) {
        if (kinds[e] == 0) {
            const uint64_t pc = ev_a[e];
            const int taken = ev_taken[e];
            /* update() recomputes predict()'s indices from unchanged
             * histories, so one index pass serves both. */
            const int predicted = mpp_predict(m, pc, indices);
            cond_count += 1;
            if ((predicted != 0) != (taken != 0))
                cond_misp += 1;
            mpp_train(m, indices, taken);
            mpp_push(m, pc, taken);
            continue;
        }

        const int64_t base = (int64_t)ev_a[e] * max_iter;
        const uint64_t target = targets[branch];

        int64_t visited = 0;
        int has_pred = 0;
        uint64_t pred = 0;
        int64_t hit_it = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            const int64_t s = slots[base + it];
            if (btb_tags[s] != vtags[base + it])
                break;
            visited += 1;
            if (mpp_predict(m, vpcas[base + it], indices)) {
                pred = btb_targets[s];
                has_pred = 1;
                hit_it = it;
                break;
            }
        }
        if (!has_pred && visited > 0 && fallback) {
            pred = btb_targets[slots[base]];
            has_pred = 1;
            hit_it = 0;
        }
        if (has_pred) {
            predictions[branch] = pred;
            valid_out[branch] = 1;
        }
        branch += 1;

        if (has_pred && pred == target) {
            for (int64_t it = 0; it < visited; ++it)
                mpp_train_weights(m, vpcas[base + it], it == hit_it,
                                  indices);
            const int64_t s = slots[base + hit_it];
            if (btb_tags[s] == vtags[base + hit_it]) {
                clock += 1;
                btb_ticks[s] = clock;
            }
            continue;
        }

        int64_t found = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            const int64_t s = slots[base + it];
            if (found < 0 && btb_tags[s] == vtags[base + it]
                    && btb_targets[s] == target)
                found = it;
        }
        if (found >= 0) {
            for (int64_t it = 0; it <= found; ++it) {
                const int64_t s = slots[base + it];
                if (btb_tags[s] == vtags[base + it] || it == found)
                    mpp_train_weights(m, vpcas[base + it], it == found,
                                      indices);
            }
            const int64_t s = slots[base + found];
            if (btb_tags[s] == vtags[base + found]) {
                clock += 1;
                btb_ticks[s] = clock;
            }
            continue;
        }

        int64_t victim = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            if (btb_tags[slots[base + it]] != vtags[base + it]) {
                victim = it;
                break;
            }
        }
        if (victim < 0) {
            int64_t best_tick = btb_ticks[slots[base]];
            victim = 0;
            for (int64_t it = 1; it < max_iter; ++it) {
                const int64_t tick = btb_ticks[slots[base + it]];
                if (tick < best_tick) {
                    best_tick = tick;
                    victim = it;
                }
            }
        }
        for (int64_t it = 0; it < visited; ++it) {
            if (it != victim)
                mpp_train_weights(m, vpcas[base + it], 0, indices);
        }
        {
            const int64_t s = slots[base + victim];
            clock += 1;
            btb_tags[s] = vtags[base + victim];
            btb_targets[s] = target;
            btb_ticks[s] = clock;
        }
        mpp_train_weights(m, vpcas[base + victim], 1, indices);
    }
    counters[0] = clock;
    counters[1] = cond_count;
    counters[2] = cond_misp;
    mpp_state[0] = mpp.theta;
    mpp_state[1] = mpp.counter;
    mpp_state[2] = mpp.path_count;
}
"""

_CFLAGS = ["-O3", "-shared", "-fPIC", "-std=c99"]

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: (restype, argtypes) per exported function; `load(name)` applies them.
_SIGNATURES: Dict[str, tuple] = {
    "blbp_replay_many": (
        None,
        [
            _I64, _I64, _I64, _I64,         # lanes, branches, bits, tmax
            _PTR, _PTR, _PTR, _PTR,         # set_ids, targets, sizes, mats
            _PTR, _PTR,                     # differs, desired
            _PTR, _PTR,                     # banks, table_rows
            _PTR, _PTR, _PTR,               # rows, luts, lut_offsets
            _PTR, _PTR,                     # weights, magnitudes
            _PTR, _PTR,                     # thetas, counters
            _PTR, _PTR, _PTR,               # cmaxs, cmins, adaptives
            _PTR, _PTR,                     # predictions, trained
        ],
    ),
    "ittage_replay": (
        None,
        [
            _I64, _I64, _I64, _I64,         # branches, tables, entries, base
            _PTR, _PTR, _PTR, _PTR,         # idx, tag, base_idx, targets
            _PTR, _PTR, _PTR, _PTR, _PTR,   # tags, targets, ctr, useful, valid
            _PTR, _PTR, _PTR,               # base targets/ctr/valid
            _I64, _I64, _I64, _I64, _I64,   # conf/useful/alt bounds, u-reset
            _PTR,                           # state [use_alt, updates]
            RNG_CALLBACK,                   # allocation tie-breaker
            _PTR, _PTR,                     # predictions, valid_out
        ],
    ),
    "vpc_replay": (
        None,
        [
            _I64,                           # events
            _PTR, _PTR, _PTR, _PTR,         # kinds, ev_a, ev_taken, targets
            _I64, _I64,                     # max_iter, fallback
            _PTR, _PTR, _PTR,               # vpcas, slots, vtags
            _PTR, _PTR, _PTR,               # btb tags/targets/ticks
            _PTR,                           # counters [clock, count, misp]
            _PTR, _PTR, _PTR, _PTR,         # MPP geometry, kinds, params, tables
            _PTR, _PTR, _PTR, _PTR,         # MPP ghist, path, local, state
            _PTR, _PTR,                     # predictions, valid_out
        ],
    ),
}

_lib: Optional[ctypes.CDLL] = None
_fns: Dict[str, object] = {}
_attempted = False
#: Why the build or load attempt failed; read only while ``_lib`` is None.
_failure: Optional[str] = None


def cache_dir() -> str:
    """Directory holding the content-addressed compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-columnar")


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        for root in os.environ.get("PATH", "").split(os.pathsep):
            candidate = os.path.join(root, name)
            if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                return name
    return None


def _build() -> Optional[str]:
    """Compile the replay cores, once, into the shared cache.

    Returns the library path, or None on failure with the reason in
    ``_failure``.  Safe under concurrent builders (dist worker pools
    sharing one cache): each compiles into a private mkstemp file and
    publishes with an atomic ``os.replace``; a builder whose own compile
    fails re-checks whether a concurrent builder already published the
    library before giving up, so transient contention never blacklists
    the compiled path for the whole process.
    """
    global _failure
    source_id = _SOURCE + "\n".join(_CFLAGS)
    digest = hashlib.sha256(source_id.encode()).hexdigest()[:16]
    directory = cache_dir()
    path = os.path.join(directory, f"replay_{digest}.so")
    if os.path.exists(path):
        return path
    compiler = _compiler()
    if compiler is None:
        _failure = (
            "no C compiler found (tried $CC, cc, gcc and clang on PATH)"
        )
        return None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_c = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        temp_so = temp_c[:-2] + ".so"
        try:
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", temp_so, temp_c],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                stderr = result.stderr.decode(errors="replace").strip()
                first = stderr.splitlines()[0] if stderr else "no stderr"
                _failure = (
                    f"{compiler} exited with status {result.returncode}: "
                    f"{first}"
                )
                return path if os.path.exists(path) else None
            # Atomic publish: concurrent builders race benignly.
            os.replace(temp_so, path)
        finally:
            for leftover in (temp_c, temp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        return path
    except (OSError, subprocess.SubprocessError) as exc:
        _failure = f"building with {compiler} failed: {exc}"
        # A concurrent builder may have published while we failed.
        return path if os.path.exists(path) else None


def _load_library() -> Optional[ctypes.CDLL]:
    global _lib, _attempted, _failure
    if _lib is not None:
        return _lib
    if _attempted:
        return None
    _attempted = True
    path = _build()
    if path is None:
        return None
    try:
        _lib = ctypes.CDLL(path)
    except OSError as exc:
        _failure = f"loading {path} failed: {exc}"
    return _lib


def load(name: str):
    """The compiled replay entry point ``name``, or None if unavailable.

    Compilation happens at most once per process; a failure (no
    compiler, a failed compile, a library that will not load) is
    remembered, and :func:`unavailable_reason` reports it.
    """
    fn = _fns.get(name)
    if fn is not None:
        return fn
    signature = _SIGNATURES.get(name)
    if signature is None:
        raise ValueError(f"unknown replay core {name!r}")
    lib = _load_library()
    if lib is None:
        return None
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = signature
    _fns[name] = fn
    return fn


def available() -> bool:
    """Whether the compiled replay cores can be used in this process."""
    return _load_library() is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled replay cores are unavailable, or None if they are."""
    return None if available() else _failure


def loaded_functions() -> List[str]:
    """Names of the compiled entry points available in this process."""
    return [name for name in _SIGNATURES if load(name) is not None]
