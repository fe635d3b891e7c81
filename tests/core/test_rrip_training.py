"""RRPV-sequence regressions for IBTB training (the double-promotion fix).

``BLBP.train`` used to call ``ibtb.ensure(pc, target)`` and then
``ibtb.touch(pc, way)`` on the returned way.  On a *hit* the extra touch
was redundant (SRRIP's promote-to-0 is idempotent), but on a *fill* it
promoted the freshly inserted way from the SRRIP insertion value
(``max - 1``, "long re-reference") straight to 0 — every newly learned
target entered the set as if it were hot, which defeats SRRIP's
scan-resistance and skews replacement toward evicting established
targets.  These tests pin the exact RRPV sequence for fill-then-hit on
both IBTB organizations and assert training never issues a bare touch.
"""

from repro.core.blbp import BLBP
from repro.core.config import BLBPConfig
from repro.core.hibtb import HierarchicalIBTB
from repro.core.ibtb import IndirectBTB


def _rrpv_of(ibtb: IndirectBTB, pc: int, target: int) -> int:
    """RRPV of the way currently holding ``target`` for ``pc``."""
    for way, stored in ibtb.lookup(pc):
        if stored == target:
            return ibtb.rrpv(pc, way)
    raise AssertionError(f"target {target:#x} not stored for pc {pc:#x}")


class TestIndirectBTBRRPVSequence:
    def test_fill_inserts_at_long_rereference(self):
        ibtb = IndirectBTB(rrpv_bits=2)
        ibtb.ensure(0x1000, 0x40_0000)
        # SRRIP-HP insertion: RRPV = max - 1, NOT 0.
        assert _rrpv_of(ibtb, 0x1000, 0x40_0000) == 2

    def test_hit_promotes_to_zero(self):
        ibtb = IndirectBTB(rrpv_bits=2)
        ibtb.ensure(0x1000, 0x40_0000)
        ibtb.ensure(0x1000, 0x40_0000)  # hit: single promotion
        assert _rrpv_of(ibtb, 0x1000, 0x40_0000) == 0

    def test_fill_then_hit_sequence(self):
        """The full pinned sequence: fill → max-1, hit → 0, hit → 0."""
        ibtb = IndirectBTB(rrpv_bits=3)
        observed = []
        for _ in range(3):
            ibtb.ensure(0x2000, 0xB000)
            observed.append(_rrpv_of(ibtb, 0x2000, 0xB000))
        assert observed == [6, 0, 0]  # max-1 = (2^3 - 1) - 1 = 6


class TestBLBPTrainSinglePromotion:
    """``train`` must rely on ``ensure`` alone for RRIP maintenance."""

    def _spy_touch(self, predictor):
        calls = []
        inner = predictor.ibtb.touch

        def spy(pc, way):
            calls.append((pc, way))
            inner(pc, way)

        predictor.ibtb.touch = spy
        return calls

    def test_flat_ibtb_fill_keeps_insertion_rrpv(self):
        blbp = BLBP(BLBPConfig(use_hierarchical_ibtb=False))
        calls = self._spy_touch(blbp)
        blbp.predict_target(0x1000)
        blbp.train(0x1000, 0x40_0000)  # first sight of the target: a fill
        # The regression: the filled way must stay at the insertion RRPV.
        max_rrpv = (1 << blbp.ibtb.rrpv_bits) - 1
        assert _rrpv_of(blbp.ibtb, 0x1000, 0x40_0000) == max_rrpv - 1
        assert calls == []  # no bare touch issued by train

    def test_flat_ibtb_hit_single_promotion(self):
        blbp = BLBP(BLBPConfig(use_hierarchical_ibtb=False))
        calls = self._spy_touch(blbp)
        for _ in range(2):
            blbp.predict_target(0x1000)
            blbp.train(0x1000, 0x40_0000)
        assert _rrpv_of(blbp.ibtb, 0x1000, 0x40_0000) == 0  # via ensure's hit
        assert calls == []

    def test_hierarchical_ibtb_train_never_touches(self):
        blbp = BLBP(BLBPConfig(use_hierarchical_ibtb=True))
        calls = self._spy_touch(blbp)
        for step in range(4):
            pc = 0x1000 + step * 0x40
            blbp.predict_target(pc)
            blbp.train(pc, 0x40_0000 + step * 4)
        assert calls == []


class TestHierarchicalIBTBRRPVSequence:
    def test_l1_spill_inserts_l2_at_long_rereference(self):
        """An L1 victim spilling into L2 gets the insertion RRPV."""
        hibtb = HierarchicalIBTB(l1_entries=1, rrpv_bits=2)
        hibtb.ensure(0x1000, 0xA000)
        hibtb.ensure(0x2000, 0xB000)  # evicts (0x1000, 0xA000) into L2
        assert _rrpv_of(hibtb._l2, 0x1000, 0xA000) == 2  # max - 1

    def test_l2_hit_then_touch_sequence(self):
        """Pinned L2 sequence: spill-fill → max-1, touch → 0."""
        hibtb = HierarchicalIBTB(l1_entries=1, rrpv_bits=2)
        hibtb.ensure(0x1000, 0xA000)
        hibtb.ensure(0x2000, 0xB000)  # spills A into L2
        observed = [_rrpv_of(hibtb._l2, 0x1000, 0xA000)]
        for handle, target in hibtb.lookup(0x1000):
            if target == 0xA000:
                hibtb.touch(0x1000, handle)
        observed.append(_rrpv_of(hibtb._l2, 0x1000, 0xA000))
        assert observed == [2, 0]

    def test_respill_promotes_existing_l2_way(self):
        """Spilling a target already resident in L2 is an L2 hit."""
        hibtb = HierarchicalIBTB(l1_entries=1, rrpv_bits=2)
        hibtb.ensure(0x1000, 0xA000)
        hibtb.ensure(0x2000, 0xB000)  # A → L2 (fill, rrpv 2)
        hibtb.ensure(0x1000, 0xA000)  # A back into L1, B → L2
        hibtb.ensure(0x3000, 0xC000)  # A → L2 again: hit, promoted
        assert _rrpv_of(hibtb._l2, 0x1000, 0xA000) == 0
