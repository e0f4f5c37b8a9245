"""The README's Library tour names exactly what the package exports, and its
File formats name the trace CSV's header as it is written."""
import ast
import os
import re

import distiht
from distiht.iht import IhtTrace, write_trace_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DELETED = ["iht_step", "affine_projection", "consensus_step",  # wrappers nothing called
           "spark_bruteforce", "SparkResult", "descent_gap_check",
           "max_consensus",  # test-only code, now in tests/oracles.py
           "WeightMatrix",  # metropolis_weights returns the (p, p) matrix
           "self_stop", "stop_rule", "reference_vector",  # every run stops on the truth
           "truth_stop",  # truth_bound is the one accuracy rule
           "_path_delay",  # a DIHT sweep takes the tree height
           "_run",  # run_iht is IHT's one loop
           "run_inexact_iht", "is_l_stationary", "StationarityReport",
           "schedule_from_text"]  # test references, now in tests/oracles.py


def exported() -> list:
    with open(distiht.__file__) as f:
        tree = ast.parse(f.read())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def section(title: str) -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def tour_names() -> set:
    """Every identifier inside a backtick span of the Library tour section."""
    return {name for span in re.findall(r"`([^`]+)`", section("Library tour"))
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_is_named_in_the_library_tour():
    names = tour_names()
    assert [name for name in exported() if name not in names] == []


def test_deleted_wrappers_are_neither_exported_nor_named():
    names = tour_names()
    for name in DELETED:
        assert not hasattr(distiht, name) and name not in exported()
        assert name not in names


def test_file_formats_name_the_trace_header_as_written(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(IhtTrace(), str(path))
    header = path.read_text().splitlines()[0]
    assert f"`{header}`" in section("File formats")
