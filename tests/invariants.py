"""Cross-artifact invariants of a successful pipeline run.

Each check reads the artifacts of one out_dir with the csv and json modules
alone, never with the package's own readers, so it stays an oracle apart
from the code it checks. As a script it checks each out_dir it is given,
prints every violation and exits 1 if there is one:

    python tests/invariants.py OUT_DIR [OUT_DIR ...]
"""

import csv
import json
import sys
from pathlib import Path

# two values each written with six decimals
TOL = 2e-6
COUNTS = ("n", "n_negative", "n_positive", "n_zero")
# the columns tables 2 and 3 take from their sources
TABLES = {
    "report/table2.csv": ("sign_breakdown.csv", (
        "approach", "n", "pct_delta_negative", "pct_delta_positive", "pct_delta_zero")),
    "report/table3.csv": ("comparison.csv", (
        "plm_approach", "n_common", "pct_plm_more_negative", "pct_plm_more_positive",
        "pct_agree")),
}


def rows(out_dir, name):
    """The rows of a CSV artifact, as dicts of strings, after its comment line."""
    with open(out_dir / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def all_deltas(out_dir):
    return rows(out_dir, "deltas.csv") + rows(out_dir, "plm_deltas.csv")


def sign(cell):
    # a delta written as 0.000000 or -0.000000 is zero
    value = float(cell)
    return (value > 0) - (value < 0)


def close(value, cell):
    return abs(value - float(cell)) <= TOL


def delta_is_pnc_minus_name(out_dir):
    for d in all_deltas(out_dir):
        if not close(float(d["pnc_valence"]) - float(d["name_valence"]), d["delta"]):
            yield f"{d['target_id']}/{d['approach']}: delta {d['delta']}"


def modifier_delta_is_modifier_minus_pnc(out_dir):
    for d in all_deltas(out_dir):
        mod, mod_delta = d["modifier_valence"], d["modifier_delta"]
        if (mod == "") != (mod_delta == "") or (
                mod and not close(float(mod) - float(d["pnc_valence"]), mod_delta)):
            yield f"{d['target_id']}/{d['approach']}: modifier_delta {mod_delta!r}"


def delta_valences_are_scores(out_dir):
    for deltas, scores in (("deltas.csv", "scores.csv"),
                           ("plm_deltas.csv", "plm_scores.csv")):
        valence = {(s["target_id"], s["approach"], s["kind"]): s["valence"]
                   for s in rows(out_dir, scores)}
        both = {(t, approach) for t, approach, kind in valence
                if kind == "pnc" and (t, approach, "full_name") in valence}
        by_pair = {(d["target_id"], d["approach"]): d for d in rows(out_dir, deltas)}
        if set(by_pair) != both:
            yield f"{deltas} holds {sorted(by_pair)}; {scores} scores both kinds of {sorted(both)}"
        for (t, approach), d in by_pair.items():
            for kind, column in (("pnc", "pnc_valence"), ("full_name", "name_valence")):
                if valence.get((t, approach, kind)) != d[column]:
                    yield f"{deltas} {t}/{approach}: {column} {d[column]}"


def sign_breakdown_counts_the_deltas(out_dir):
    expected = {}
    for d in all_deltas(out_dir):
        counts = expected.setdefault(d["approach"], dict.fromkeys(COUNTS, 0))
        counts["n"] += 1
        counts[{-1: "n_negative", 0: "n_zero", 1: "n_positive"}[sign(d["delta"])]] += 1
    found = {r["approach"]: {c: int(r[c]) for c in COUNTS}
             for r in rows(out_dir, "sign_breakdown.csv")}
    if found != expected:
        yield f"sign_breakdown.csv {found}; the deltas {expected}"


def domains_sum_to_all_and_all_counts_norms(out_dir):
    summary = rows(out_dir, "domain_summary.csv")
    n_norms = len(rows(out_dir, "deltas.csv"))
    everything = [r for r in summary if r["group"] == "all"]
    domains = [r for r in summary if r["group"] != "all"]
    if not n_norms:
        if summary:
            yield f"{len(summary)} rows without a norms delta"
        return
    if len(everything) != 1 or int(everything[0]["n"]) != n_norms:
        yield f"all rows {everything}; {n_norms} norms deltas"
        return
    for c in COUNTS:
        total = sum(int(r[c]) for r in domains)
        if total != int(everything[0][c]):
            yield f"the domains' {c} sum to {total}, all has {everything[0][c]}"


def tables_2_and_3_are_their_sources(out_dir):
    for table, (source, columns) in TABLES.items():
        if rows(out_dir, table) != [{c: r[c] for c in columns}
                                    for r in rows(out_dir, source)]:
            yield f"{table} is not its columns of {source}"


def fig3_is_domain_summary(out_dir):
    expected = [{c: v if c == "group" else int(v) if c in COUNTS else float(v)
                 for c, v in r.items()} for r in rows(out_dir, "domain_summary.csv")]
    if read_json(out_dir, "report/fig3.json")["domains"] != expected:
        yield "fig3.json domains differ from domain_summary.csv"


def fig1_lists_each_norms_delta_once(out_dir):
    listed = sorted((pnc["target_id"], entry["name_valence"], pnc["pnc_valence"],
                     pnc["delta"])
                    for entry in read_json(out_dir, "report/fig1.json")["names"]
                    for pnc in entry["pncs"])
    expected = sorted((d["target_id"], float(d["name_valence"]), float(d["pnc_valence"]),
                       float(d["delta"])) for d in rows(out_dir, "deltas.csv"))
    if listed != expected:
        yield (f"fig1.json lists {sorted(set(listed) - set(expected))}, "
               f"lacks {sorted(set(expected) - set(listed))}")


def correlations_count_the_norms_deltas(out_dir):
    n_norms = len(rows(out_dir, "deltas.csv"))
    for r in rows(out_dir, "correlations.csv"):
        if int(r["n"]) != n_norms:
            yield f"{r['pair']}/{r['method']}: n {r['n']}, {n_norms} norms deltas"


def table_7_has_a_row_per_model(out_dir):
    n_table = len(rows(out_dir, "report/table7.csv"))
    n_models = len(rows(out_dir, "multivariate.csv"))
    if n_table != n_models:
        yield f"table7.csv has {n_table} rows, multivariate.csv {n_models}"


INVARIANTS = (
    delta_is_pnc_minus_name, modifier_delta_is_modifier_minus_pnc,
    delta_valences_are_scores, sign_breakdown_counts_the_deltas,
    domains_sum_to_all_and_all_counts_norms, tables_2_and_3_are_their_sources,
    fig3_is_domain_summary, fig1_lists_each_norms_delta_once,
    correlations_count_the_norms_deltas, table_7_has_a_row_per_model,
)


def violations(out_dir):
    """Every violated invariant of the run in out_dir, one message each,
    after the invariant's name."""
    return [f"{check.__name__}: {message}"
            for check in INVARIANTS for message in check(Path(out_dir))]


if __name__ == "__main__":
    found = [f"{out_dir}: {v}" for out_dir in sys.argv[1:] for v in violations(out_dir)]
    print("\n".join(found) or f"every invariant holds on {len(sys.argv) - 1} run(s)")
    sys.exit(1 if found else 0)
