import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from pncvalence.corpus import ContextMatch
from pncvalence.errors import (ClassificationError, ParseError,
                               ValidationError)
from pncvalence.sentiment import (MAX_WAIT, AgreementResult, ContextItem,
                                  LabelHistogram, LabelRecord, ServiceConfig,
                                  build_histograms, classify_contexts,
                                  compare_approaches, eq2_valence,
                                  filter_records_by_kind, kind_index,
                                  pairwise_iaa, pool_annotators,
                                  read_label_jsonl)
from pncvalence.valence import DeltaRecord, sign_breakdown


def rec(tid, cid, label, source="m1"):
    return LabelRecord(target_id=tid, context_id=cid, label=label,
                       source_id=source)


def hist(tid, neg, neu, pos):
    return LabelHistogram(target_id=tid, n_negative=neg, n_neutral=neu,
                          n_positive=pos)


class TestEq2Valence:
    def test_all_positive_is_ten(self):
        assert eq2_valence(hist("t", 0, 0, 4), "pnc", "plm:m1").valence == 10.0

    def test_all_negative_is_zero(self):
        assert eq2_valence(hist("t", 3, 0, 0), "pnc", "plm:m1").valence == 0.0

    def test_all_neutral_is_five(self):
        assert eq2_valence(hist("t", 0, 7, 0), "pnc", "plm:m1").valence == 5.0

    def test_mixed_distribution(self):
        # (2 + 0.5*1) / 4 * 10
        rec = eq2_valence(hist("t", 1, 1, 2), "pnc", "human")
        assert rec.valence == pytest.approx(6.25)
        assert rec.n_contexts == 4
        assert rec.n_context_lemmas == 0
        assert rec.approach == "human"

    def test_empty_histogram_unscorable(self):
        assert eq2_valence(hist("t", 0, 0, 0), "pnc", "plm:m1") is None


class TestHistograms:
    def test_build_sorted(self):
        records = [rec("b", "c1", "positive"), rec("a", "c1", "negative"),
                   rec("a", "c2", "negative"), rec("a", "c3", "neutral")]
        hists = build_histograms(records)
        assert [h.target_id for h in hists] == ["a", "b"]
        assert hists[0].n_negative == 2
        assert hists[0].n_neutral == 1
        assert hists[0].total == 3

    def test_pool_annotators(self):
        records = [rec("a", "c1", "positive", "a1"),
                   rec("a", "c1", "negative", "a2"),
                   rec("a", "c1", "neutral", "model_x")]
        pooled = pool_annotators(records, ["a1", "a2"])
        assert len(pooled) == 2
        # each individual judgement still counts in the histogram
        h = build_histograms(pooled)[0]
        assert (h.n_negative, h.n_neutral, h.n_positive) == (1, 0, 1)


class TestKindFiltering:
    def match(self, tid, doc, kind):
        return ContextMatch(target_id=tid, doc_id=doc, kind=kind,
                            matched_variant="v", byte_start=0, byte_end=1)

    def test_kind_index(self):
        idx = kind_index([self.match("a", "d1", "pnc"),
                          self.match("a", "d2", "full_name"),
                          self.match("a", "d1", "full_name")])
        assert idx[("a", "d1")] == frozenset({"pnc", "full_name"})
        assert idx[("a", "d2")] == frozenset({"full_name"})

    def test_filter_by_kind_both_kinds_count_twice(self):
        idx = {("a", "d1"): frozenset({"pnc", "full_name"}),
               ("a", "d2"): frozenset({"pnc"})}
        records = [rec("a", "d1", "positive"), rec("a", "d2", "negative"),
                   rec("a", "d3", "neutral")]
        as_pnc = filter_records_by_kind(records, idx, "pnc")
        as_name = filter_records_by_kind(records, idx, "full_name")
        assert [r.context_id for r in as_pnc] == ["d1", "d2"]
        assert [r.context_id for r in as_name] == ["d1"]


class TestLabelJsonl:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text(
            '{"target_id": "a", "context_id": "c1", "label": "positive", "source_id": "m1"}\n'
            '{"target_id": "a", "context_id": "c1", "label": "negative", "source_id": "m2"}\n',
            encoding="utf-8")
        records = read_label_jsonl(str(p), set())
        assert len(records) == 2
        assert records[0].label == "positive"

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"target_id": "a", "context_id": "c1", '
                     '"label": "meh", "source_id": "m1"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="unknown label"):
            read_label_jsonl(str(p), set())

    def test_duplicate_triple_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        row = ('{"target_id": "a", "context_id": "c1", '
               '"label": "neutral", "source_id": "m1"}\n')
        p.write_text(row + row, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_label_jsonl(str(p), set())
        assert exc.value.line == 2

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"target_id": "a", "label": "neutral"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="missing field"):
            read_label_jsonl(str(p), set())

    @pytest.mark.parametrize("field, value", [
        ("context_id", {"a": 1}), ("target_id", None), ("source_id", 1.5)])
    def test_id_must_be_string_or_integer(self, tmp_path, field, value):
        row = {"target_id": "a", "context_id": 7, "label": "neutral", "source_id": "m1"}
        p = tmp_path / "labels.jsonl"
        p.write_text(json.dumps(row) + "\n" + json.dumps(dict(row, **{field: value}))
                     + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{field} must be a string or an integer") as exc:
            read_label_jsonl(str(p), set())
        assert exc.value.line == 2

    def test_non_object_line_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"target_id": "a", "context_id": "c1", '
                     '"label": "neutral", "source_id": "m1"}\n[1]\n', encoding="utf-8")
        with pytest.raises(ParseError, match="expected a JSON object") as exc:
            read_label_jsonl(str(p), set())
        assert exc.value.line == 2


def delta(tid, value, approach="norms"):
    return DeltaRecord(target_id=tid, approach=approach, pnc_valence=5 + value,
                       name_valence=5.0, delta=value)


class TestSignBreakdown:
    def test_counts_per_approach(self):
        deltas = [delta("a", -1.0), delta("b", 2.0), delta("c", 0.0),
                  delta("a", -1.0, "plm:m1"), delta("b", -0.5, "plm:m1")]
        rows = sign_breakdown(deltas)
        assert [r.group for r in rows] == ["norms", "plm:m1"]
        norms = rows[0]
        assert (norms.n, norms.n_negative, norms.n_positive, norms.n_zero) == (3, 1, 1, 1)
        assert norms.pct_zero == pytest.approx(100 / 3)
        assert rows[1].pct_negative == 100.0


class TestCompareApproaches:
    def test_sign_class_partition(self):
        plm = [delta("a", -1.0, "plm:m1"), delta("b", 1.0, "plm:m1"),
               delta("c", -2.0, "plm:m1"), delta("d", 3.0, "plm:m1")]
        norms = [delta("a", -0.5), delta("b", 2.0), delta("c", 1.0),
                 delta("d", -1.0)]
        res = compare_approaches(plm, norms)
        classes = dict(res.per_target)
        assert classes == {"a": "agree", "b": "agree",
                           "c": "plm_more_negative", "d": "plm_more_positive"}
        assert res.n_common == 4
        assert res.pct_agree == 50.0
        assert res.pct_plm_more_negative == 25.0
        assert res.pct_plm_more_positive == 25.0

    def test_zero_orders_between_signs(self):
        assert dict(compare_approaches([delta("a", 0.0, "plm:m1")],
                                       [delta("a", 1.0)]).per_target) == {
            "a": "plm_more_negative"}
        assert dict(compare_approaches([delta("a", 0.0, "plm:m1")],
                                       [delta("a", -1.0)]).per_target) == {
            "a": "plm_more_positive"}
        assert dict(compare_approaches([delta("a", 0.0, "plm:m1")],
                                       [delta("a", 0.0)]).per_target) == {
            "a": "agree"}

    def test_only_common_targets_counted(self):
        res = compare_approaches([delta("a", 1.0, "plm:m1"),
                                  delta("x", 1.0, "plm:m1")],
                                 [delta("a", 1.0), delta("y", 1.0)])
        assert res.n_common == 1

    def test_disjoint_targets_share_nothing(self):
        res = compare_approaches([delta("a", 1.0, "plm:m1")], [delta("b", 1.0)])
        assert res.n_common == 0 and res.per_target == ()
        assert res.pct_agree is None
        assert res.pct_plm_more_negative is None
        assert res.pct_plm_more_positive is None

    def test_mixed_plm_approaches_rejected(self):
        with pytest.raises(ValidationError, match="one label-based approach"):
            compare_approaches([delta("a", 1.0, "plm:m1"),
                                delta("b", 1.0, "plm:m2")], [delta("a", 1.0)])


class TestPairwiseIaa:
    def annotations(self):
        labels_a1 = {"c1": "negative", "c2": "neutral", "c3": "positive"}
        labels_a2 = {"c1": "negative", "c2": "positive", "c3": "neutral"}
        records = []
        for cid, lab in labels_a1.items():
            records.append(rec("t", cid, lab, "a1"))
        for cid, lab in labels_a2.items():
            records.append(rec("t", cid, lab, "a2"))
        return records

    def test_hand_computed_rho(self):
        # ranks 1,2,3 vs 1,3,2: rho = 1 - 6*2/(3*8) = 0.5
        res = pairwise_iaa(self.annotations())
        assert len(res.pairs) == 1
        assert res.pairs[0].n_shared == 3
        assert res.pairs[0].rho == pytest.approx(0.5)
        assert res.mean_rho == pytest.approx(0.5)

    def test_undefined_for_single_shared_item(self):
        records = [rec("t", "c1", "positive", "a1"),
                   rec("t", "c1", "negative", "a2"),
                   rec("t", "c9", "neutral", "a2")]
        res = pairwise_iaa(records)
        assert res.pairs[0].n_shared == 1
        assert res.pairs[0].rho is None
        assert res.mean_rho is None

    def test_undefined_when_one_side_constant(self):
        records = [rec("t", "c1", "neutral", "a1"), rec("t", "c2", "neutral", "a1"),
                   rec("t", "c1", "positive", "a2"), rec("t", "c2", "negative", "a2")]
        assert pairwise_iaa(records).pairs[0].rho is None

    def test_mean_over_defined_pairs_and_exclude(self):
        records = self.annotations()
        # a3 agrees perfectly with a1 on the three items
        for cid, lab in (("c1", "negative"), ("c2", "neutral"), ("c3", "positive")):
            records.append(rec("t", cid, lab, "a3"))
        full = pairwise_iaa(records)
        assert len(full.pairs) == 3
        rhos = {(p.annotator_a, p.annotator_b): p.rho for p in full.pairs}
        assert rhos[("a1", "a3")] == pytest.approx(1.0)
        assert full.mean_rho == pytest.approx((0.5 + 1.0 + 0.5) / 3)
        # leaving an annotator out equals recomputing without their labels
        assert full.mean_rho_without("a2") == pytest.approx(1.0)
        for left_out in ("a1", "a2", "a3"):
            reduced = pairwise_iaa([r for r in records if r.source_id != left_out])
            assert len(reduced.pairs) == 1
            assert full.mean_rho_without(left_out) == reduced.mean_rho

    def test_one_annotator_makes_no_pair(self):
        for records in ([rec("t", "c1", "neutral", "a1")],
                        [r for r in self.annotations() if r.source_id != "a2"]):
            res = pairwise_iaa(records)
            assert res.pairs == ()
            assert res.mean_rho is None

    def test_result_type(self):
        assert isinstance(pairwise_iaa(self.annotations()), AgreementResult)


class StubService:
    """Scripted HTTP classifier: each request consumes the next scripted
    (status, body) pair; the last entry repeats once the script runs out."""

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[dict] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                stub.requests.append(json.loads(self.rfile.read(length)))
                status, body = (stub.script.pop(0) if stub.script
                                else stub.last)
                stub.last = (status, body)
                payload = body if isinstance(body, (bytes, str)) else json.dumps(body)
                if isinstance(payload, str):
                    payload = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        if self.script:
            self.last = self.script[-1]
        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def base_url(self):
        return f"http://127.0.0.1:{self.server.server_address[1]}"


def items(n):
    return [ContextItem(target_id="t", context_id=f"c{i}", text=f"Text {i}")
            for i in range(n)]


def config(url, **kw):
    kw.setdefault("batch_size", 2)
    kw.setdefault("backoff_base", 0.01)
    kw.setdefault("timeout", 5.0)
    return ServiceConfig(base_url=url, **kw)


class TestClassifyContexts:
    def test_success_batched(self):
        script = [(200, {"labels": ["positive", "negative"]}),
                  (200, {"labels": ["neutral", "positive"]}),
                  (200, {"labels": ["negative"]})]
        with StubService(script) as stub:
            records, errors = classify_contexts(items(5), config(stub.base_url),
                                                "plm:m1")
        assert errors == []
        assert [r.label for r in records] == ["positive", "negative", "neutral",
                                              "positive", "negative"]
        assert all(r.source_id == "plm:m1" for r in records)
        assert len(stub.requests) == 3
        assert stub.requests[0] == {"texts": ["Text 0", "Text 1"]}

    def test_retries_after_server_error(self):
        script = [(500, {"error": "down"}),
                  (200, {"labels": ["positive", "negative"]})]
        with StubService(script) as stub:
            records, errors = classify_contexts(items(2), config(stub.base_url),
                                                "plm:m1")
        assert len(records) == 2
        assert len(stub.requests) == 2

    def test_persistent_failure_names_contexts(self):
        with StubService([(503, {"error": "down"})]) as stub:
            with pytest.raises(ClassificationError) as exc:
                classify_contexts(items(2), config(stub.base_url, max_retries=2),
                                  "plm:m1")
            assert len(stub.requests) == 3  # initial try plus two retries
        assert exc.value.context_ids == ["c0", "c1"]

    def test_client_error_fails_immediately(self):
        with StubService([(422, {"error": "bad"})]) as stub:
            with pytest.raises(ClassificationError, match="422"):
                classify_contexts(items(2), config(stub.base_url), "plm:m1")
            assert len(stub.requests) == 1

    def test_unknown_label_is_per_item_error(self):
        script = [(200, {"labels": ["positive", "sarcastic"]})]
        with StubService(script) as stub:
            records, errors = classify_contexts(items(2), config(stub.base_url),
                                                "plm:m1")
        assert [r.context_id for r in records] == ["c0"]
        assert errors == ["t/c1: unknown label 'sarcastic'"]

    def test_malformed_response_rejected(self):
        with StubService([(200, {"result": "ok"})]) as stub:
            with pytest.raises(ClassificationError, match="malformed"):
                classify_contexts(items(1), config(stub.base_url), "plm:m1")

    @pytest.mark.parametrize("body", [[["positive"]], None], ids=["array", "null"])
    def test_reply_that_is_no_object_is_malformed(self, body):
        with StubService([(200, body)]) as stub:
            with pytest.raises(ClassificationError, match="malformed"):
                classify_contexts(items(1), config(stub.base_url), "plm:m1")

    def test_length_mismatch_rejected(self):
        with StubService([(200, {"labels": ["positive"]})]) as stub:
            with pytest.raises(ClassificationError, match="expected 2 labels"):
                classify_contexts(items(2), config(stub.base_url), "plm:m1")

    def test_batch_size_validated(self):
        with pytest.raises(ValidationError):
            classify_contexts(items(1), config("http://x", batch_size=0), "m")

    def test_backoff_doubles_up_to_the_cap_past_a_float_power_of_2(self, monkeypatch):
        # 0.5 * 2 ** 1024 is too large to be a float; the waits stay at the cap
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)

        def refuse(*args, **kwargs):
            raise OSError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with pytest.raises(ClassificationError, match="after 1101 attempts"):
            classify_contexts(items(1), config("http://x", max_retries=1100,
                                               backoff_base=0.5, backoff_cap=8), "m")
        assert waits == [0.5, 1.0, 2.0, 4.0] + [8] * 1096


class TestServiceConfig:
    @pytest.mark.parametrize("key, value", [
        ("timeout", MAX_WAIT + 0.5), ("timeout", float("inf")),
        ("timeout", float("nan")), ("backoff_base", float("inf")),
        ("backoff_base", float("nan")), ("backoff_cap", MAX_WAIT + 0.5),
        ("backoff_cap", float("inf")), ("backoff_cap", float("nan")),
    ])
    def test_wait_out_of_range_names_the_setting(self, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must be "):
            ServiceConfig(base_url="http://x", **{key: value})

    @pytest.mark.parametrize("settings, message", [
        ({"base_url": "http://x", "timeout": "5"},
         "timeout: unknown setting or wrong type ('5')"),
        ({"base_url": "http://x", "batch_size": 2.0},
         "batch_size: unknown setting or wrong type (2.0)"),
        ({"base_url": "http://x", "max_retries": False},
         "max_retries: unknown setting or wrong type (False)"),
        ({"base_url": "http://x", "retries": 1},
         "retries: unknown setting or wrong type (1)"),
        ({"model_id": "m"}, "base_url is required"),
    ])
    def test_from_settings_checks_names_and_types(self, settings, message):
        with pytest.raises(ValidationError) as exc:
            ServiceConfig.from_settings(**settings)
        assert str(exc.value) == message

    def test_from_settings_takes_an_int_wait_at_the_bound(self):
        assert ServiceConfig.from_settings(base_url="http://x", timeout=MAX_WAIT,
                                           backoff_cap=MAX_WAIT) == ServiceConfig(
            base_url="http://x", timeout=MAX_WAIT, backoff_cap=MAX_WAIT)

    def test_urlopen_takes_the_longest_timeout(self):
        with StubService([(200, {"labels": ["neutral"]})]) as stub:
            records, _ = classify_contexts(
                items(1), config(stub.base_url, timeout=MAX_WAIT), "m")
        assert [r.label for r in records] == ["neutral"]

    def test_sleep_takes_the_longest_backoff(self):
        # time.sleep rejects a wait it cannot take at once; this one is still
        # asleep half a second after it began
        assert MAX_WAIT < threading.TIMEOUT_MAX
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c",
             f"import time; print(flush=True); time.sleep({MAX_WAIT})"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            proc.stdout.readline()
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(0.5)
        finally:
            proc.kill()
            proc.communicate()
