/* Event-order VPC replay (repro.predictors.vpc.VPCPredictor) with its
 * shared conditional predictor, repro.cond.mpp's
 * MultiperspectivePerceptron, run in C as well.
 */
#include "replay.h"

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
    const uint64_t pc_hash = mix_pc(pc, 0);
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

    uint64_t *local = m->local + mix_pc(pc, 0) % m->local_entries;
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
