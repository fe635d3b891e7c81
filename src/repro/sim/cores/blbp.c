/* Whole-lane BLBP replay (repro.core.blbp.BLBP).
 *
 * One call replays one or more BLBP lanes over one trace, record by
 * record in retirement order, each lane exactly as the scalar engine's
 * call sequence would: conditionals shift into the lazily flushed
 * global-history register; an indirect branch flushes it, reads the
 * interval folds and its local-history register to pick one weight row
 * per bank, probes its IBTB set (dropping ways whose target region was
 * recycled), scores the candidates against the transferred weight sums,
 * trains the per-bit adaptive thresholds and weights, keeps the IBTB
 * current (RRIP promote on a hit, or region encode, SRRIP victim and
 * fill), and shifts its local history.  Every piece of predictor state
 * arrives as the Python object's own buffer, or a copy the caller
 * writes back, and is updated in place.
 */
#include "replay.h"

/* Field order mirrors repro.sim.kernel._BLBPLane. */
typedef struct {
    int64_t bits;               /* K predicted target bits ... */
    int64_t low_bit;            /* ... starting at this one */
    int64_t banks;              /* local/bias bank plus one per interval */
    int64_t table_rows;
    int64_t lut_offset;         /* transfer LUT index of weight 0 */
    int64_t magnitude;          /* weight saturation */
    int64_t counter_max;        /* adaptive-threshold controller bounds */
    int64_t counter_min;
    int64_t adaptive;
    int64_t selective;
    int64_t use_local;
    int64_t local_entries;
    int64_t local_bits;
    int64_t local_target_bit;
    int64_t history_bits;
    int64_t pending;            /* in/out: the register's pending bits */
    int64_t ibtb_sets;
    int64_t ibtb_ways;
    int64_t ibtb_tag_bits;
    int64_t rrpv_max;
    int64_t region_entries;
    int64_t region_offset_bits;
    int64_t trained;            /* out: trained bits */
    const int64_t *fold_spans;  /* (banks - 1, 3): start, end, width */
    uint64_t *folds;            /* (banks - 1,) in/out, as last flushed */
    uint64_t *ghist;            /* ghr_words(history_bits) in/out */
    uint64_t *local;            /* (local_entries,) in/out */
    const int32_t *lut;         /* (2 * lut_offset + 1,) */
    int8_t *weights;            /* (banks, table_rows, bits) */
    int64_t *theta;             /* (bits,) */
    int64_t *counter;           /* (bits,) */
    int64_t *ibtb_tags;         /* (sets * ways,) each; tag -1 = empty */
    int64_t *ibtb_regions;
    int64_t *ibtb_generations;
    int64_t *ibtb_offsets;
    int64_t *ibtb_rrpv;
    int64_t *region_high;       /* (region_entries,) each; -1 = free */
    int64_t *region_generation;
    int64_t *region_stamp;      /* LRU: last-touch clock, 0 = untouched */
    int64_t *region_counters;   /* [clock, evictions] in/out */
    uint64_t *predictions;      /* (branches,) */
    uint8_t *valid;             /* (branches,) */
} blbp_lane_t;

#define IBTB_EMPTY (-1)

static void region_touch(blbp_lane_t *lane, int64_t index)
{
    lane->region_counters[0] += 1;
    lane->region_stamp[index] = lane->region_counters[0];
}

/* RegionArray.encode: the region holding `target`'s high bits, touched
 * in LRU order, or the LRU victim (untouched regions first) recycled
 * for them under a new generation. */
static int64_t region_encode(blbp_lane_t *lane, uint64_t target)
{
    const int64_t high = (int64_t)(target >> lane->region_offset_bits);
    for (int64_t i = 0; i < lane->region_entries; ++i) {
        if (lane->region_high[i] == high) {
            region_touch(lane, i);
            return i;
        }
    }
    int64_t victim = 0;
    for (int64_t i = 1; i < lane->region_entries; ++i) {
        if (lane->region_stamp[i] < lane->region_stamp[victim])
            victim = i;
    }
    if (lane->region_high[victim] != -1)
        lane->region_counters[1] += 1;
    lane->region_high[victim] = high;
    lane->region_generation[victim] += 1;
    region_touch(lane, victim);
    return victim;
}

/* IndirectBTB._fill: store `target` over the SRRIP victim of the set
 * at `base`, ageing the set until a way reaches the maximum RRPV. */
static void ibtb_fill(blbp_lane_t *lane, int64_t base, int64_t tag,
                      uint64_t target)
{
    const int64_t region = region_encode(lane, target);
    int64_t *rrpv = lane->ibtb_rrpv + base;
    int64_t way = 0;
    for (int64_t w = 1; w < lane->ibtb_ways; ++w) {
        if (rrpv[w] > rrpv[way])
            way = w;
    }
    const int64_t age = lane->rrpv_max - rrpv[way];
    if (age > 0) {
        for (int64_t w = 0; w < lane->ibtb_ways; ++w)
            rrpv[w] += age;
    }
    const int64_t entry = base + way;
    lane->ibtb_tags[entry] = tag;
    lane->ibtb_regions[entry] = region;
    lane->ibtb_generations[entry] = lane->region_generation[region];
    lane->ibtb_offsets[entry] =
        (int64_t)(target & low_mask(lane->region_offset_bits));
    rrpv[way] = lane->rrpv_max - 1;
}

/* PerBitAdaptiveThreshold.observe_and_mask over the `active` bits:
 * returns the mask of bits to train. */
static uint64_t threshold_mask(blbp_lane_t *lane, const int32_t *yout,
                               uint64_t active, uint64_t desired)
{
    uint64_t mask = 0;
    for (int64_t k = 0; k < lane->bits; ++k) {
        if (!((active >> k) & 1))
            continue;
        const int32_t value = yout[k];
        const int correct = (value >= 0) == (int)((desired >> k) & 1);
        const int64_t mag = value >= 0 ? value : -value;
        int64_t current = lane->theta[k];
        int train;
        if (!lane->adaptive) {
            train = !correct || mag < current;
        } else if (correct) {
            if (mag >= current)
                continue;
            lane->counter[k] -= 1;
            if (lane->counter[k] <= lane->counter_min) {
                lane->counter[k] = 0;
                if (current > 1) {
                    current -= 1;
                    lane->theta[k] = current;
                }
            }
            train = mag < current;
        } else {
            lane->counter[k] += 1;
            if (lane->counter[k] >= lane->counter_max) {
                lane->counter[k] = 0;
                lane->theta[k] = current + 1;
            }
            train = 1;
        }
        mask |= (uint64_t)train << k;
    }
    return mask;
}

static void blbp_replay_lane(
    blbp_lane_t *lane, ghr_t *history, int64_t records, const uint8_t *types,
    const uint64_t *pcs, const uint8_t *takens, const uint64_t *targets)
{
    ghr_t ghr = *history;
    const int64_t bits = lane->bits;
    const int64_t banks = lane->banks;
    const uint64_t table_rows = (uint64_t)lane->table_rows;
    const uint64_t bit_mask = low_mask(bits);
    const uint64_t tag_mask = low_mask(lane->ibtb_tag_bits);
    const uint64_t local_mask = low_mask(lane->local_bits);
    const int64_t ways = lane->ibtb_ways;
    int64_t rows[banks];
    int32_t yout[bits];
    uint64_t cand_target[ways];
    int64_t cand_way[ways];
    int64_t branch = 0;

    for (int64_t r = 0; r < records; ++r) {
        const uint8_t type = types[r];
        if (type == BRANCH_CONDITIONAL) {
            ghr_push(&ghr, takens[r] != 0, 1);
            continue;
        }
        if (type != BRANCH_INDIRECT_JUMP && type != BRANCH_INDIRECT_CALL)
            continue;
        const uint64_t pc = pcs[r];
        const uint64_t target = targets[r];
        ghr_flush(&ghr);

        /* BLBPHistories.indices. */
        const uint64_t pc_hash = mix_pc(pc, 0);
        uint64_t *local = lane->local + pc_hash % (uint64_t)lane->local_entries;
        const uint64_t bias = lane->use_local
            ? pc_hash ^ stable_hash64(*local) : pc_hash;
        rows[0] = (int64_t)(bias % table_rows);
        for (int64_t n = 1; n < banks; ++n)
            rows[n] = (int64_t)((mix_pc(pc, (uint64_t)n)
                                 ^ ghr.values[n - 1]) % table_rows);

        /* The transferred weight sums. */
        for (int64_t k = 0; k < bits; ++k)
            yout[k] = 0;
        for (int64_t n = 0; n < banks; ++n) {
            const int8_t *w = lane->weights
                + (n * lane->table_rows + rows[n]) * bits;
            for (int64_t k = 0; k < bits; ++k)
                yout[k] += lane->lut[(int64_t)w[k] + lane->lut_offset];
        }

        /* IndirectBTB.lookup: candidates in way order, stale ways
         * (recycled regions) invalidated on the way through. */
        const int64_t base = (int64_t)(pc_hash % (uint64_t)lane->ibtb_sets)
            * ways;
        const int64_t tag = (int64_t)((pc_hash >> 12) & tag_mask);
        int64_t candidates = 0;
        for (int64_t w = 0; w < ways; ++w) {
            const int64_t entry = base + w;
            if (lane->ibtb_tags[entry] != tag)
                continue;
            const int64_t region = lane->ibtb_regions[entry];
            const int64_t high = lane->region_high[region];
            if (high == -1 || lane->region_generation[region]
                    != lane->ibtb_generations[entry]) {
                lane->ibtb_tags[entry] = IBTB_EMPTY;
                continue;
            }
            cand_target[candidates] =
                ((uint64_t)high << lane->region_offset_bits)
                | (uint64_t)lane->ibtb_offsets[entry];
            cand_way[candidates] = w;
            candidates += 1;
        }

        /* Score by the sum of yout over each candidate's set bits; the
         * first maximum wins. */
        uint64_t all_ones = bit_mask, any_ones = 0;
        if (candidates) {
            int64_t best = 0;
            int64_t best_score = INT64_MIN;
            for (int64_t t = 0; t < candidates; ++t) {
                const uint64_t slice = (cand_target[t] >> lane->low_bit)
                    & bit_mask;
                all_ones &= slice;
                any_ones |= slice;
                int64_t score = 0;
                for (int64_t k = 0; k < bits; ++k)
                    score += (int64_t)((slice >> k) & 1) * yout[k];
                if (score > best_score) {
                    best_score = score;
                    best = t;
                }
            }
            lane->predictions[branch] = cand_target[best];
            lane->valid[branch] = 1;
        }
        branch += 1;

        /* Selective bit training trains only the bits on which the
         * candidates and the actual target disagree. */
        const uint64_t desired = (target >> lane->low_bit) & bit_mask;
        uint64_t active = bit_mask;
        if (lane->selective)
            active = candidates
                ? (any_ones | desired) & ~(all_ones & desired) : 0;
        const uint64_t mask = active
            ? threshold_mask(lane, yout, active, desired) : 0;
        if (mask) {
            for (int64_t k = 0; k < bits; ++k)
                lane->trained += (int64_t)((mask >> k) & 1);
            for (int64_t n = 0; n < banks; ++n) {
                int8_t *w = lane->weights
                    + (n * lane->table_rows + rows[n]) * bits;
                for (int64_t k = 0; k < bits; ++k) {
                    if (!((mask >> k) & 1))
                        continue;
                    int64_t value = (int64_t)w[k]
                        + (((desired >> k) & 1) ? 1 : -1);
                    if (value > lane->magnitude)
                        value = lane->magnitude;
                    if (value < -lane->magnitude)
                        value = -lane->magnitude;
                    w[k] = (int8_t)value;
                }
            }
        }

        /* IndirectBTB.ensure. */
        int64_t hit = -1;
        for (int64_t t = 0; t < candidates; ++t) {
            if (cand_target[t] == target) {
                hit = cand_way[t];
                break;
            }
        }
        if (hit >= 0)
            lane->ibtb_rrpv[base + hit] = 0;
        else
            ibtb_fill(lane, base, tag, target);

        /* BLBPHistories.push_target. */
        const uint64_t pushed = lane->local_target_bit < 64
            ? (target >> lane->local_target_bit) & 1 : 0;
        *local = ((*local << 1) | pushed) & local_mask;
    }

    lane->pending = ghr_pending(&ghr);
    ghr_finish(&ghr, lane->ghist);
}

/* Replay every lane over the trace's columns.  Returns 0, or -1 when
 * memory for the history rings runs out, before any lane changed. */
int64_t blbp_replay_many(
    int64_t lanes,
    blbp_lane_t *lane,
    int64_t records,
    const uint8_t *types,
    const uint64_t *pcs,
    const uint8_t *takens,
    const uint64_t *targets)
{
    ghr_t histories[lanes > 0 ? lanes : 1];
    for (int64_t l = 0; l < lanes; ++l) {
        if (ghr_init(&histories[l], lane[l].history_bits, lane[l].pending,
                     lane[l].ghist, lane[l].banks - 1, lane[l].fold_spans,
                     lane[l].folds, 1)) {
            while (l-- > 0)
                ghr_free(&histories[l]);
            return -1;
        }
    }
    for (int64_t l = 0; l < lanes; ++l)
        blbp_replay_lane(&lane[l], &histories[l], records, types, pcs,
                         takens, targets);
    return 0;
}
