"""The §VIII-E claims, checked on BENCH_migration.json without
simulating: the committed rows pass :func:`migration.check`, and a copy
that breaks one claim of one section fails it by name."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import migration

BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_migration.json").read_text()
)
SECTIONS = {name: BASELINE[name] for name in migration.GATES}


def test_committed_baseline_holds_every_claim():
    migration.check(SECTIONS)


def _row(rows, **match):
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _set(section, fields, **match):
    def doctor(sections):
        _row(sections[section], **match).update(fields)
    return doctor


def _fig8_migration_no_faster(sections):
    best = _row(sections["fig8"], scenario="sharing2_best_fit")
    _row(sections["fig8"], scenario="sharing2_best_fit_migration")[
        "total_s"] = best["total_s"]


def _window_16_faster(sections):
    four = _row(sections["confirm_window"], confirm_checks=4)
    _row(sections["confirm_window"], confirm_checks=16)[
        "total_s"] = four["total_s"] - 1.0


FIG8_BEST = {"scenario": "sharing2_best_fit"}
FIG8_MIGRATION = {"scenario": "sharing2_best_fit_migration"}


@pytest.mark.parametrize("doctor, claim", [
    (_set("fig8", {"total_s": 54.5}, scenario="sharing2_worst_fit"),
     "Fig. 8: worst-fit sharing beats no sharing"),
    (_set("fig8", {"total_s": 54.0}, **FIG8_BEST),
     "Fig. 8: best-fit sharing is slower than no sharing"),
    (_fig8_migration_no_faster, "Fig. 8: best-fit + migration beats best-fit"),
    (_set("fig8", {"migrations": 0}, **FIG8_MIGRATION),
     "Fig. 8: best-fit + migration migrates"),
    (_set("fig8", {"migrations": 1}, **FIG8_BEST),
     "Fig. 8: sharing2_best_fit never migrates"),
    (_set("fig8", {"total_s": 30.0}, scenario="sharing2_worst_fit"),
     "Fig. 8: worst-fit cuts no sharing's total by 3-35%"),
    (_set("fig8", {"total_s": 57.5}, **FIG8_MIGRATION),
     "Fig. 8: migration cuts best-fit's total by 2-30%"),
    (_set("fig8", {"idle_gpu_tail_pct": 60.0}, **FIG8_BEST),
     "Fig. 8b: best-fit's idle GPU stays under 25% in the tail"),
    (_set("fig8", {"busy_gpu_tail_pct": 50.0}, **FIG8_BEST),
     "Fig. 8b: best-fit's busy GPU stays over 60% in the tail"),
    (_set("confirm_window", {"total_s": 58.5}, confirm_checks=2),
     "confirmation window: 2 checks take at most 0.5 s more than no "
     "migration"),
    (_set("confirm_window", {"migrations": 0}, confirm_checks=4),
     "confirmation window: 4 checks migrate"),
    (_window_16_faster,
     "confirmation window: 16 checks are at most 0.5 s faster than 4"),
    (_set("table5", {"native_s": 2.5}, array_mb=323),
     "Table V: native is the 3.2±0.4 s CUDA init at 323 MB"),
    (_set("table5", {"dgsf_s": 0.6}, array_mb=3514),
     "Table V: DGSF runs under 0.5 s and a tenth of native at 3514 MB"),
    (_set("table5", {"dgsf_migration_e2e_s": 0.028}, array_mb=323),
     "Table V: a forced migration lengthens DGSF at 323 MB"),
    (_set("table5", {"migration_s": 1.0}, array_mb=323),
     "Table V: the end-to-end time holds the migration at 323 MB"),
    (_set("table5", {"migration_s": 0.5}, array_mb=7802),
     "Table V: migration time never falls as the array grows"),
    (_set("table5", {"migration_s": 0.1}, array_mb=323),
     "Table V: migrating 323 MB takes 0.2-0.8 s"),
    (_set("table5", {"migration_s": 3.5, "dgsf_migration_e2e_s": 3.6},
          array_mb=13194),
     "Table V: migrating 13194 MB takes 1.2-3.0 s"),
    (_set("table5", {"dgsf_migration_e2e_s": 4.0}, array_mb=13194),
     "Table V: migration is over 60% of the end-to-end time at 13194 MB"),
    (_set("strategies", {"migration_s": 1.4}, strategy="dgsf"),
     "strategies: peer access moves faster than DGSF, DGSF faster than "
     "checkpoint/restore"),
    (_set("strategies", {"source_mb_still_held": 100},
          strategy="checkpoint_restore"),
     "strategies: checkpoint_restore frees the source GPU"),
    (_set("strategies", {"source_mb_still_held": 0}, strategy="peer_access"),
     "strategies: peer access leaves the 3514 MB array on the source GPU"),
    (_set("strategies", {"e2e_s": 7.5}, strategy="dgsf"),
     "strategies: DGSF finishes before peer_access"),
    (_set("strategies", {"post_penalty": 1.0}, strategy="peer_access"),
     "strategies: peer access slows later kernels 2.5x"),
], ids=[
    "fig8-worst_fit", "fig8-best_fit", "fig8-migration", "fig8-migrates",
    "fig8-never_migrates", "fig8-worst_fit_gain", "fig8-migration_gain",
    "fig8b-idle", "fig8b-busy", "window-2", "window-4_migrates",
    "window-16", "table5-native", "table5-dgsf", "table5-lengthens",
    "table5-holds", "table5-monotone", "table5-small", "table5-large",
    "table5-share", "strategies-order", "strategies-ckpt_frees",
    "strategies-peer_holds", "strategies-e2e", "strategies-penalty",
])
def test_a_broken_claim_is_named(doctor, claim):
    sections = copy.deepcopy(SECTIONS)
    doctor(sections)
    with pytest.raises(SimulationError) as err:
        migration.check(sections)
    assert claim in str(err.value)
