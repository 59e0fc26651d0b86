"""The whole pipeline either succeeds or exits 2 or 3, whatever its inputs
hold: every stage runs on line-level mutations of the toy inputs, with
warnings raised as errors, and no exception may escape the command line."""

import shutil
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pncvalence.cli import main

TOY = Path(__file__).parent / "data" / "toy"
STAGES = ("variants", "match", "score", "sentiment", "compare", "regress", "report")
# each input file of the toy run and the separator of its fields
INPUTS = {"targets.csv": ",", "metadata.csv": ",", "corpus.jsonl": ",",
          "labels_models.jsonl": ",", "labels_human.jsonl": ",",
          "lexicon.tsv": "\t", "tagged_contexts.tsv": "\t"}
# numbers no reader should trust, quotes, and combining diaeresis and acute
TOKENS = ("nan", "inf", "-inf", "1e308", "-1e308", '"', "'", '""', "\u0308", "\u0301")
OPS = ("delete", "duplicate", "swap", "truncate", "insert", "replace_field")

# (file, op, line, position, token); line and position are taken modulo the
# number of lines and of characters or fields
mutation = st.tuples(st.sampled_from(sorted(INPUTS)), st.sampled_from(OPS),
                     st.integers(0, 200), st.integers(0, 200),
                     st.sampled_from(TOKENS))


def mutate(lines, op, i, j, token, sep):
    if not lines:
        return lines
    i %= len(lines)
    line = lines[i]
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    elif op == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], line
    elif op == "truncate":
        lines[i] = line[:j % (len(line) + 1)]
    elif op == "insert":
        k = j % (len(line) + 1)
        lines[i] = line[:k] + token + line[k:]
    else:
        fields = line.split(sep)
        fields[j % len(fields)] = token
        lines[i] = sep.join(fields)
    return lines


def test_every_stage_exits_0_2_or_3(tmp_path):
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(mutation, min_size=1, max_size=3))
    # an age whose squares would overflow the elastic net's scaling, and a
    # lexicon key given twice
    @example([("metadata.csv", "replace_field", 1, 1, "1e308")])
    @example([("lexicon.tsv", "duplicate", 0, 0, "nan")])
    def check(mutations):
        run_dir = tmp_path / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(TOY, run_dir)
        for name, op, i, j, token in mutations:
            path = run_dir / name
            lines = path.read_text(encoding="utf-8").split("\n")
            path.write_text("\n".join(mutate(lines, op, i, j, token, INPUTS[name])),
                            encoding="utf-8")
        config = str(run_dir / "config.json")
        out = str(run_dir / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stage in STAGES:
                code = main([stage, "--config", config, "--out", out])
                assert code in (0, 2, 3), (stage, code)

    check()
