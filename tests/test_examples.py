"""The examples must run end-to-end (they double as acceptance tests)."""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "result: 3 (expected 3)" in out
    assert "no 3.2 s CUDA init" in out


def test_migration_demo(capsys):
    out = run_example("migration_demo.py", capsys)
    assert "virtual address map identical across GPUs: OK" in out
    assert "data intact and kernels still running after migration: OK" in out
    assert "cuDNN handle translated to the destination GPU: OK" in out


def test_custom_workload(capsys):
    out = run_example("custom_workload.py", capsys)
    assert "identical under native and DGSF backends" in out
    assert "image pipeline produced 150528 bytes" in out


@pytest.mark.slow
def test_serverless_inference(capsys):
    out = run_example("serverless_inference.py", capsys)
    assert "sharing vs no sharing:" in out
    assert "avg GPU utilization" in out


def test_class_gpu_service(capsys):
    out = run_example("class_gpu_service.py", capsys)
    assert "GPU-hours" in out
    assert "of dedicated" in out


def test_call_trace_analysis(capsys):
    out = run_example("call_trace_analysis.py", capsys)
    assert "routing of interposed calls" in out
    assert "top APIs by remoting time" in out
    intercepted = int(re.search(r"intercepted (\d+) calls", out).group(1))
    routes = dict(re.findall(r"^  (local|batched|async|remote) +(\d+)", out, re.M))
    assert {"local", "batched", "remote"} <= set(routes)
    assert sum(int(n) for n in routes.values()) == intercepted


def test_experiments_cli_runs(capsys):
    """The `python -m repro.experiments` entry point works."""
    from repro.experiments.__main__ import main

    main(["migration"])
    out = capsys.readouterr().out
    assert "Table V" in out
    assert "13194" in out
