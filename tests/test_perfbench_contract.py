"""What the benchmark harness's tracer (perfbench/layers.py) reads from the
program: the layer functions `chainflux.cli` imports, their parameter names
and the attributes its counters take from arguments and results. A change
that breaks `perfbench/run.py --trace 1` fails here in milliseconds."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import chainflux.cli as cli
from chainflux import (
    Seed,
    VnmParams,
    ZeroFluxPolicy,
    dos_baseline,
    load_csv,
    square_2x2,
    vnm_null_distribution,
    write_csv,
)
from chainflux.core import TreatmentDataset

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_cli_imports_every_traced_layer(layers):
    names = {layers.layer_name(fn) for fn in layers.layer_functions(cli).values()}
    assert set(layers.COUNTERS) <= names
    assert {
        "core.estimate_markov",
        "core.stationarity_diagnostic",
        "observables.full_report",
        "observables.epr",
    } <= names


def test_counters_read_the_layers(layers, tmp_path):
    tracer = layers.Tracer()
    data = TreatmentDataset.from_rows(
        "t", square_2x2(), np.array([[0, 1, 3, 2], [1, 1, 0, 2]])
    )
    path = tmp_path / "in.csv"
    tracer.wrap("dataio.write_csv", write_csv)(datasets=[data], path=path)
    datasets = tracer.wrap("dataio.load_csv", load_csv)(path, square_2x2())
    assert [d.n_rounds for d in datasets] == [8]
    skip = ZeroFluxPolicy.skip()
    tracer.wrap("nullmodels.dos_baseline", dos_baseline)(
        [0.25] * 4, n_rounds=8, reps=3, policy=skip, seed=Seed(1)
    )
    params = VnmParams(p=0.5, q=0.5, sessions=2, rounds_per_session=4)
    tracer.wrap("nullmodels.vnm_null_distribution", vnm_null_distribution)(
        params, 3, skip, Seed(1)
    )
    assert tracer.count("dataio.write_csv", "rows") == 8
    assert tracer.count("dataio.load_csv", "rows") == 8
    assert tracer.count("dataio.load_csv", "bytes") == path.stat().st_size
    assert tracer.count("nullmodels.dos_baseline", "draw_bytes") == 3 * 8 * 8
    assert tracer.count("nullmodels.vnm_null_distribution", "draw_bytes") == (
        3 * 2 * 4 * 2 * 8
    )
