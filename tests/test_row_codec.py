"""Result-store rows: the packed interval row and its JSON fallback.

``encode_row`` packs the interval models' result shape into one struct
and falls back to JSON for every other shape; ``decode_row`` reads
both, so stores written with JSON rows stay warm.  Round trips are
checked field by field with ``float.hex`` and exact types, not ``==``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import sqlite3
import struct

import pytest

from repro.engine import EvaluationEngine, EventBus, ResultCache
from repro.engine.cache import _checksum
from repro.engine.serialize import (
    PACKED_TAG,
    decode_row,
    encode_row,
    simresult_to_jsonable,
)
from repro.errors import EngineError
from repro.sim import CycleSimulator, IntervalSimulator
from repro.sim.interval_batch import BatchIntervalModel
from repro.workloads import generate_trace, spec2000_profile, spec2000_profiles

from .walks import generate_configs


def exact(result):
    """Every field of ``result`` as (type, exact text); floats by ``float.hex``."""

    def field(value):
        return type(value), value.hex() if type(value) is float else value

    stack = result.cpi_stack
    return (
        type(result),
        field(result.workload),
        field(result.instructions),
        field(result.cycles),
        field(result.clock_period_ns),
        None
        if stack is None
        else (type(stack),)
        + tuple(field(getattr(stack, f.name)) for f in dataclasses.fields(stack)),
        type(result.detail),
        [(key, field(value)) for key, value in result.detail.items()],
    )


def exact_all(results):
    return [exact(result) for result in results]


@pytest.fixture(scope="module")
def walk():
    return generate_configs(512, seed=7)


@pytest.fixture(scope="module")
def interval_result():
    return IntervalSimulator().evaluate(spec2000_profile("gcc"), generate_configs(1)[0])


@pytest.mark.parametrize("path", ["scalar", "batch"])
def test_interval_results_pack_and_round_trip_bit_exactly(path, walk):
    scalar, batch = IntervalSimulator(), BatchIntervalModel()
    for profile in spec2000_profiles():
        if path == "scalar":
            results = [scalar.evaluate(profile, config) for config in walk]
        else:
            results = batch.evaluate_batch(profile, walk)
        for result in results:
            row = encode_row(result)
            assert row.startswith(PACKED_TAG) and row.isascii()
            assert exact(decode_row(row)) == exact(result)


def _stack(result, **changes):
    stack = dataclasses.replace(result.cpi_stack, **changes)
    return dataclasses.replace(result, cpi_stack=stack)


def _detail(result, **changes):
    return dataclasses.replace(result, detail={**result.detail, **changes})


FALLBACKS = {
    "cycle-simulator": lambda r: CycleSimulator(generate_configs(1)[0]).run(
        generate_trace(spec2000_profile("gzip"), 2000, seed=1)
    ),
    "no-cpi-stack": lambda r: dataclasses.replace(r, cpi_stack=None),
    "int-cycles": lambda r: dataclasses.replace(r, cycles=123_456_789),
    "int-detail": lambda r: _detail(r, window=96),
    "extra-detail": lambda r: _detail(r, note=1.0),
    "non-ascii-workload": lambda r: dataclasses.replace(r, workload="gcc-été"),
    "negative-zero": lambda r: _stack(r, branch=-0.0),
    "subnormal": lambda r: _detail(r, l1_miss_rate=5e-324),
    "inf": lambda r: dataclasses.replace(r, cycles=math.inf),
    "nan": lambda r: _detail(r, l2_global_miss_rate=math.nan),
    "huge-instructions": lambda r: dataclasses.replace(r, instructions=2**70),
}


@pytest.mark.parametrize("shape", sorted(FALLBACKS))
def test_other_shapes_fall_back_to_json_and_round_trip(shape, interval_result):
    result = FALLBACKS[shape](interval_result)
    row = encode_row(result)
    assert not row.startswith(PACKED_TAG)
    assert json.loads(row)["__kind__"] == "SimResult"
    assert exact(decode_row(row)) == exact(result)


def test_zero_terms_and_a_long_workload_name_still_pack(interval_result):
    result = dataclasses.replace(
        _stack(interval_result, branch=0.0, memory=0.0), workload="x" * 300
    )
    row = encode_row(result)
    assert row.startswith(PACKED_TAG)
    assert exact(decode_row(row)) == exact(result)


@pytest.mark.parametrize(
    "damage",
    [
        lambda row: row[:1],
        lambda row: row[:60],
        lambda row: row[:60] + "!" + row[61:],
        lambda row: row[:60] + "é" + row[61:],
        lambda row: row[:119] + "A" + row[120:],
    ],
    ids=["tag-only", "truncated", "bad-character", "non-ascii", "bad-padding"],
)
def test_damaged_packed_rows_raise_engine_error(damage, interval_result):
    with pytest.raises(EngineError):
        decode_row(damage(encode_row(interval_result)))


def _packed(*fields, workload="gcc"):
    """A packed row built by hand from the documented layout."""
    payload = struct.pack("<qdd4d4d", *fields)
    return PACKED_TAG + base64.b64encode(payload).decode("ascii") + workload


def test_packed_row_layout_is_pinned(interval_result):
    r, stack = interval_result, interval_result.cpi_stack
    fields = (r.instructions, r.cycles, r.clock_period_ns)
    fields += (stack.base, stack.branch, stack.l2_access, stack.memory)
    fields += tuple(r.detail.values())
    assert tuple(r.detail) == ("window", "ipc_base", "l1_miss_rate", "l2_global_miss_rate")
    assert encode_row(r) == _packed(*fields)


INVALID_ROWS = {
    "packed-negative-cycles": _packed(100, -1.0, 0.5, 1.0, 0, 0, 0, 1.0, 1.0, 0.1, 0.1),
    "packed-zero-base-cpi": _packed(100, 1.0, 0.5, 0.0, 0, 0, 0, 1.0, 1.0, 0.1, 0.1),
    "json-negative-cycles": json.dumps(
        {"__kind__": "SimResult", "__version__": 1, "workload": "w",
         "instructions": 1, "cycles": -1.0, "clock_period_ns": 1.0}
    ),
    "json-no-fields": '{"__kind__":"SimResult"}',
    "json-list": "[]",
    "json-truncated": "{",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(INVALID_ROWS))
def test_rows_with_invalid_values_raise_engine_error(name):
    # SimResult's own validation errors surface as unreadable rows.
    with pytest.raises(EngineError):
        decode_row(INVALID_ROWS[name])


# ----------------------------------------------------------------------
# through the store
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pairs():
    configs = generate_configs(4, seed=3)
    return [(spec2000_profile(name), c) for name in ("gzip", "mcf", "gcc") for c in configs]


def _warm_store(db, pairs):
    """A SQLite store holding every pair; returns (results, keys)."""
    with EvaluationEngine(jobs=1, cache=ResultCache(db)) as warm:
        results = warm.evaluate_many(pairs)
        keys = [warm.key_for(profile, config) for profile, config in pairs]
    return results, keys


def _rerun(db, pairs):
    """Evaluate ``pairs`` on the store again; returns (results, engine, quarantines)."""
    quarantines = []
    bus = EventBus()
    bus.subscribe(lambda e, p: quarantines.append(p["key"]) if e == "quarantine" else None)
    with EvaluationEngine(jobs=1, cache=ResultCache(db), events=bus) as engine:
        results = engine.evaluate_many(pairs)
    return results, engine, quarantines


@pytest.mark.parametrize(
    "damage",
    [
        lambda row: row[: len(row) // 2],
        lambda row: row[:9] + ("B" if row[9] == "A" else "A") + row[10:],
    ],
    ids=["truncated", "one-character"],
)
def test_damaged_stored_packed_row_is_quarantined_and_resimulated(
    damage, tmp_path, pairs
):
    db = tmp_path / "results.sqlite"
    clean, keys = _warm_store(db, pairs)
    key = keys[0]
    with sqlite3.connect(db) as conn:
        (value,) = conn.execute(
            "SELECT value FROM results WHERE key = ?", (key,)
        ).fetchone()
        assert value.startswith(PACKED_TAG)
        conn.execute("UPDATE results SET value = ? WHERE key = ?", (damage(value), key))
    conn.close()

    results, engine, quarantines = _rerun(db, pairs)
    assert exact_all(results) == exact_all(clean)
    assert quarantines == [key]
    assert engine.metrics.evaluations == 1
    results, engine, quarantines = _rerun(db, pairs)
    assert (engine.metrics.evaluations, quarantines) == (0, [])


@pytest.mark.parametrize("legacy_share", ["all", "mixed"])
def test_store_with_json_rows_reads_warm(legacy_share, tmp_path, pairs):
    """JSON rows, the format stores held before packed rows, stay hits."""
    db = tmp_path / "results.sqlite"
    clean, keys = _warm_store(db, pairs)
    rewrite = range(len(keys)) if legacy_share == "all" else range(0, len(keys), 2)
    with sqlite3.connect(db) as conn:
        for i in rewrite:
            value = json.dumps(simresult_to_jsonable(clean[i]), separators=(",", ":"))
            conn.execute(
                "UPDATE results SET value = ?, checksum = ? WHERE key = ?",
                (value, _checksum(value), keys[i]),
            )
        (json_rows,) = conn.execute(
            "SELECT COUNT(*) FROM results WHERE value LIKE '{%'"
        ).fetchone()
    conn.close()
    assert json_rows == len(rewrite) and 0 < json_rows <= len(keys)

    results, engine, quarantines = _rerun(db, pairs)
    assert exact_all(results) == exact_all(clean)
    assert engine.metrics.evaluations == 0
    assert quarantines == [] and engine.cache.stats.quarantined == 0
