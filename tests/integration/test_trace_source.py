"""The unified TraceSource API: one ``repro.detect`` entry point that
accepts a Trace, an ExecutionResult, a path in any on-disk format, an
open file object, or a raw operation stream — plus the ``weakraces
convert`` command that moves traces between formats."""

import io

import pytest

import repro
from repro.cli import main
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1a_program
from repro.programs.workqueue import run_figure2
from repro.trace.binfile import BinaryTraceError, write_binary_trace
from repro.trace.build import Trace, build_trace
from repro.trace.columnar import ColumnarTrace, to_columnar
from repro.trace.tracefile import write_trace


@pytest.fixture
def result():
    return run_figure2(make_model("WO"))


@pytest.fixture
def trace(result):
    return build_trace(result)


def _race_keys(report):
    return [(r.a, r.b, r.locations, r.is_data_race) for r in report.races]


# ----------------------------------------------------------------------
# sniffing / load / save
# ----------------------------------------------------------------------

def test_sniff_all_formats(trace, tmp_path):
    write_trace(trace, tmp_path / "t.jsonl")
    write_binary_trace(trace, tmp_path / "t.bin")
    to_columnar(trace, tmp_path / "t.wrct")
    assert repro.sniff_trace_format(tmp_path / "t.jsonl") == "jsonl"
    assert repro.sniff_trace_format(tmp_path / "t.bin") == "binary"
    assert repro.sniff_trace_format(tmp_path / "t.wrct") == "columnar"


def test_sniffing_ignores_extension(trace, tmp_path):
    """Detection is by magic, not by suffix."""
    path = tmp_path / "lies.jsonl"
    write_binary_trace(trace, path)
    assert repro.sniff_trace_format(path) == "binary"
    loaded = repro.load_trace(path)
    assert loaded.event_count == trace.event_count


def test_save_trace_infers_format_from_suffix(trace, tmp_path):
    assert repro.save_trace(trace, tmp_path / "a.jsonl") == "jsonl"
    assert repro.save_trace(trace, tmp_path / "a.bin") == "binary"
    assert repro.save_trace(trace, tmp_path / "a.wrct") == "columnar"
    assert repro.save_trace(trace, tmp_path / "a.unknown") == "jsonl"
    with pytest.raises(ValueError, match="format"):
        repro.save_trace(trace, tmp_path / "a.bin", format="nope")


def test_load_trace_columnar_is_lazy(trace, tmp_path):
    path = tmp_path / "t.wrct"
    repro.save_trace(trace, path)
    loaded = repro.load_trace(path)
    assert isinstance(loaded, ColumnarTrace)
    loaded.close()


# ----------------------------------------------------------------------
# detect() source polymorphism: identical races from every source kind
# ----------------------------------------------------------------------

@pytest.mark.parametrize("detector", ["postmortem", "streaming"])
def test_detect_from_every_source_kind(result, trace, tmp_path, detector):
    base = _race_keys(repro.detect(trace, detector=detector))
    assert base  # figure2 races

    paths = {
        "jsonl": tmp_path / "t.jsonl",
        "binary": tmp_path / "t.bin",
        "columnar": tmp_path / "t.wrct",
    }
    for fmt, path in paths.items():
        repro.save_trace(trace, path, format=fmt)
        assert _race_keys(repro.detect(path, detector=detector)) == base
        assert _race_keys(repro.detect(str(path), detector=detector)) == base
        with path.open("rb") as fh:  # open binary file object
            assert _race_keys(repro.detect(fh, detector=detector)) == base

    with paths["jsonl"].open("r") as fh:  # text file object
        assert _race_keys(repro.detect(fh, detector=detector)) == base

    buf = io.BytesIO(paths["binary"].read_bytes())  # in-memory stream
    assert _race_keys(repro.detect(buf, detector=detector)) == base


@pytest.mark.parametrize("detector", ["postmortem", "streaming"])
def test_detect_from_operation_iterator(result, trace, detector):
    base = _race_keys(repro.detect(trace, detector=detector))
    ops = iter(list(result.operations))
    assert _race_keys(repro.detect(ops, detector=detector)) == base


def test_detect_rejects_unknown_source():
    with pytest.raises(TypeError, match="Trace"):
        repro.detect(12345)
    with pytest.raises(TypeError):
        repro.detect(iter([1, 2, 3]))


# ----------------------------------------------------------------------
# weakraces convert
# ----------------------------------------------------------------------

def test_convert_round_trips_all_formats(tmp_path, capsys):
    jsonl = tmp_path / "t.jsonl"
    assert main(["trace", "figure2", str(jsonl), "--model", "WO"]) == 0
    capsys.readouterr()

    binp = tmp_path / "t.bin"
    colp = tmp_path / "t.wrct"
    back = tmp_path / "back.jsonl"
    assert main(["convert", str(jsonl), str(binp)]) == 0
    assert "jsonl" in capsys.readouterr().out
    assert main(["convert", str(binp), str(colp)]) == 0
    assert "columnar" in capsys.readouterr().out
    assert main(["convert", str(colp), str(back), "--to", "jsonl"]) == 0
    capsys.readouterr()

    base = _race_keys(repro.detect(jsonl))
    for path in (binp, colp, back):
        assert _race_keys(repro.detect(path)) == base


def test_convert_corrupt_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRTR\x00garbage")
    assert main(["convert", str(bad), str(tmp_path / "out.jsonl")]) == 2
    assert "convert:" in capsys.readouterr().err


def test_convert_missing_input_exit_two(tmp_path, capsys):
    assert main([
        "convert", str(tmp_path / "nope.bin"), str(tmp_path / "o.jsonl")
    ]) == 2
    assert "convert:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# analyze auto-detects formats; streaming detector on the CLI
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fmt,name", [
    ("binary", "t.bin"), ("columnar", "t.wrct"),
])
def test_analyze_auto_detects_binary_formats(tmp_path, capsys, fmt, name):
    trace = build_trace(run_program(figure1a_program(), make_model("SC")))
    path = tmp_path / name
    repro.save_trace(trace, path, format=fmt)
    assert main(["analyze", str(path)]) == 1
    assert "First partition" in capsys.readouterr().out


def test_analyze_streaming_detector(tmp_path, capsys):
    trace = build_trace(run_program(figure1a_program(), make_model("SC")))
    path = tmp_path / "t.wrct"
    repro.save_trace(trace, path)
    assert main(["analyze", str(path), "--detector", "streaming"]) == 1
    assert "Streaming" in capsys.readouterr().out


def test_analyze_streaming_rejects_graph_flags(tmp_path, capsys):
    trace = build_trace(run_program(figure1a_program(), make_model("SC")))
    path = tmp_path / "t.jsonl"
    repro.save_trace(trace, path)
    code = main(["analyze", str(path), "--detector", "streaming",
                 "--dot", str(tmp_path / "g.dot")])
    assert code == 2


def test_run_streaming_detector(capsys):
    assert main(["run", "figure1a", "--model", "SC",
                 "--detector", "streaming"]) == 1
    assert "Streaming" in capsys.readouterr().out


def test_torn_binary_trace_analyze_exit_two(tmp_path, capsys):
    from repro.faults.plan import tear_file
    trace = build_trace(run_program(figure1a_program(), make_model("SC")))
    path = tmp_path / "t.bin"
    repro.save_trace(trace, path)
    tear_file(path, drop_bytes=9)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "at byte" in err
