"""Unit tests for repro.lint: rules, suppression, scoping, CLI."""

import pathlib
import textwrap

import pytest

from repro.lint import RULES, Finding, get_rule, lint_paths, lint_source
from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CORE = "src/repro/core/example.py"
SIM = "src/repro/sim/example.py"
DATA = "src/repro/data/example.py"
OTHER = "src/repro/viz/example.py"


def ids(source: str, path: str = OTHER):
    """Lint a snippet and return the list of triggered rule ids."""
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path=path)]


class TestR001FloatThreshold:
    def test_original_aguri_snippet_trips(self):
        # The verbatim shape of the historical bug: 0.07 * 100 is
        # 7.000000000000001, so a node at exactly the threshold share
        # was folded into its parent.
        source = """
            def aggregate(node, fraction, total):
                if node.count < fraction * total:
                    fold(node)
        """
        assert ids(source) == ["R001"]

    def test_float_literal_product_trips(self):
        assert ids("ok = total >= 0.05 * window_size\n") == ["R001"]

    def test_exact_integer_comparison_passes(self):
        source = """
            def aggregate(node, numerator, denominator, total):
                if node.count * denominator < numerator * total:
                    fold(node)
        """
        assert ids(source) == []

    def test_pure_float_comparison_passes(self):
        assert ids("ok = density < 0.5 * ceiling\n") == []


class TestR002ElementLoop:
    LOOP = """
        def walk(array):
            out = []
            for hi, lo in zip(array["hi"], array["lo"]):
                out.append((int(hi) << 64) | int(lo))
            return out
    """

    def test_column_zip_loop_trips_in_core(self):
        assert ids(self.LOOP, path=CORE) == ["R002"]

    def test_rule_is_scoped_to_core(self):
        assert ids(self.LOOP, path=OTHER) == []
        assert ids(self.LOOP, path=SIM) == []

    def test_range_len_index_loop_trips(self):
        source = """
            def walk(addresses):
                for i in range(len(addresses)):
                    use(addresses[i])
        """
        # R003 also fires: 'addresses' is used raw, which is the point.
        assert "R002" in ids(source, path=CORE)

    def test_comprehension_over_columns_trips(self):
        source = 'values = [int(v) for v in array["lo"]]\n'
        assert ids(source, path=CORE) == ["R002"]

    def test_vectorized_code_passes(self):
        source = """
            def walk(array):
                return (array["hi"].astype(object) << 64) | array["lo"]
        """
        assert ids(source, path=CORE) == []


class TestR003UnguardedEntry:
    def test_bare_alias_trips(self):
        # The exact shape of the census bug: raw input escapes through
        # an alias even though a guard exists on another path.
        source = """
            import numpy as np

            def census(addresses):
                if isinstance(addresses, np.ndarray):
                    array = addresses
                else:
                    array = to_array(addresses)
                return array.shape[0]
        """
        assert ids(source, path=CORE) == ["R003"]

    def test_guarded_rebind_passes(self):
        source = """
            def census(addresses):
                array = _as_address_array(addresses)
                return array.shape[0]
        """
        assert ids(source, path=CORE) == []

    def test_raw_subscript_without_guard_trips(self):
        source = """
            def census(addresses):
                return addresses["hi"]
        """
        assert ids(source, path=CORE) == ["R003"]

    def test_forwarding_passes(self):
        source = """
            def census_day(store, day, addresses=None):
                return census(addresses)
        """
        assert ids(source, path=CORE) == []

    def test_scalar_annotation_is_exempt(self):
        source = """
            from typing import Iterable, List

            def cull_other(addresses: Iterable[int]) -> List[int]:
                return [v for v in addresses if keep(v)]
        """
        assert ids(source, path=CORE) == []

    def test_private_functions_are_exempt(self):
        source = """
            def _helper(addresses):
                return addresses["hi"]
        """
        assert ids(source, path=CORE) == []


class TestR004UnseededRandom:
    def test_module_level_random_trips(self):
        assert ids("value = random.random()\n", path=SIM) == ["R004"]

    def test_numpy_legacy_global_trips(self):
        assert ids("value = np.random.randint(0, 10)\n", path=SIM) == ["R004"]

    def test_unseeded_default_rng_trips(self):
        assert ids("rng = np.random.default_rng()\n", path=SIM) == ["R004"]

    def test_unseeded_random_instance_trips(self):
        assert ids("rng = random.Random()\n", path=SIM) == ["R004"]

    def test_seeded_constructions_pass(self):
        source = """
            rng = np.random.default_rng(seed)
            other = random.Random(42)
            stream = substream(seed, "network", 3)
        """
        assert ids(source, path=SIM) == []

    def test_rule_is_scoped_to_sim(self):
        assert ids("value = random.random()\n", path=CORE) == []


class TestR005ForkSafety:
    def test_lock_in_forking_module_trips(self):
        source = """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            _LOCK = threading.Lock()

            def fan_out(tasks):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, tasks))
        """
        assert ids(source) == ["R005"]

    def test_handle_opened_before_pool_trips(self):
        source = """
            def fan_out(path, tasks):
                handle = open(path, "rb")
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, tasks))
        """
        assert ids(source) == ["R005"]

    def test_handle_inside_worker_passes(self):
        source = """
            def _worker(path):
                with open(path, "rb") as handle:
                    return handle.read()

            def fan_out(paths):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(_worker, paths))
        """
        assert ids(source) == []

    def test_module_without_pools_passes(self):
        source = """
            import threading

            _LOCK = threading.Lock()
        """
        assert ids(source) == []


class TestR006DtypeMix:
    def test_bare_shift_literal_trips(self):
        assert ids("marker = lo >> 24\n") == ["R006"]

    def test_bare_mask_on_subscript_trips(self):
        assert ids('prefix = array["hi"] & 0xFFFF\n') == ["R006"]

    def test_wrapped_literal_passes(self):
        assert ids("marker = lo >> np.uint64(24)\n") == []

    def test_unrelated_names_pass(self):
        assert ids("offset = cursor >> 24\n") == []


class TestR007SwallowedFault:
    def test_bare_except_trips(self):
        source = """
            def cleanup():
                try:
                    work()
                except:
                    pass
        """
        assert ids(source) == ["R007"]

    def test_bare_except_trips_even_with_real_body(self):
        source = """
            def cleanup():
                try:
                    work()
                except:
                    log("failed")
        """
        assert ids(source) == ["R007"]

    def test_blanket_exception_pass_trips(self):
        source = """
            def cleanup():
                try:
                    work()
                except Exception:
                    pass
        """
        assert ids(source) == ["R007"]

    def test_blanket_in_tuple_with_ellipsis_body_trips(self):
        source = """
            def cleanup():
                try:
                    work()
                except (ValueError, BaseException):
                    ...
        """
        assert ids(source) == ["R007"]

    def test_blanket_with_reraise_passes(self):
        source = """
            def cleanup():
                try:
                    work()
                except Exception:
                    raise
        """
        assert ids(source) == []

    def test_blanket_with_recovery_body_passes(self):
        source = """
            def cleanup():
                try:
                    work()
                except BaseException:
                    report("fault")
        """
        assert ids(source) == []

    def test_narrow_except_pass_passes(self):
        source = """
            def cleanup():
                try:
                    work()
                except OSError:
                    pass
        """
        assert ids(source) == []

    def test_inline_ignore_suppresses(self):
        source = """
            def cleanup():
                try:
                    work()
                except Exception:  # repro-lint: ignore[R007]
                    pass
        """
        assert ids(source) == []

    def test_explain_has_rationale(self, capsys):
        assert main(["--explain", "R007"]) == 0
        out = capsys.readouterr().out
        assert "Invariant:" in out and "quarantine" in out


class TestR008SetRoutine:
    @pytest.mark.parametrize(
        "call",
        [
            "np.unique(raw)",
            "np.unique(entries, return_inverse=True)",
            "np.intersect1d(a, b, assume_unique=True)",
            "np.union1d(a, b)",
            "np.setdiff1d(a, b, assume_unique=True)",
            "numpy.isin(a, b)",
            "np.lexsort((lo, hi))",
            "numpy.lexsort((day, lo, hi))",
        ],
    )
    def test_set_routines_trip_in_core_and_data(self, call):
        assert ids(f"out = {call}\n", path=CORE) == ["R008"]
        assert ids(f"out = {call}\n", path=DATA) == ["R008"]

    def test_parent_store_truncation_trips(self):
        # The structured-dtype truncation this rule was written against.
        source = """
            def truncate_array(array, prefix_len):
                result = array.copy()
                result["lo"] = result["lo"] & lo_mask
                return np.unique(result)
        """
        assert ids(source, path=DATA) == ["R008"]

    @pytest.mark.parametrize(
        "source, path",
        [
            # data/store.canonical_columns, unsorted input.
            (
                """
                if not ascending.all():
                    order = np.lexsort((lo, hi))
                    hi, lo = hi[order], lo[order]
                """,
                DATA,
            ),
            # core/sweep.grouped_spans.
            (
                """
                hi, lo, day = _concat_columns(arrays, [int(d) for d in days])
                order = np.lexsort((day, lo, hi))
                shi, slo, sday = hi[order], lo[order], day[order]
                """,
                CORE,
            ),
            # core/sweep._sweep_chunk.
            (
                """
                hi, lo, day_col = _concat_columns(arrays, window_days)
                # Stable, so each address's rows keep their chronological order.
                order = np.lexsort((lo, hi))
                """,
                CORE,
            ),
        ],
    )
    def test_parent_column_lexsorts_trip(self, source, path):
        # The three column sorts the int64 address-id keys replaced.
        assert ids(source, path=path) == ["R008"]

    def test_rule_is_scoped_to_core_and_data(self):
        assert ids("out = np.unique(values)\n", path=OTHER) == []
        assert ids("out = np.unique(values)\n", path=SIM) == []

    def test_kernels_and_other_numpy_calls_pass(self):
        source = """
            order = np.argsort(obstore.address_ids(hi, lo)[0])
            keys = np.sort(ids * scale + day)
            sums = np.add.reduceat(hits, starts)
            where = np.searchsorted(hi, query_hi)
            merged = obstore.union_many(arrays)
            values = table.unique()
        """
        assert ids(source, path=CORE) == []

    def test_justified_ignore_suppresses(self):
        source = (
            "# One uint64 column of MAC values, not an address set.\n"
            "n = np.unique(macs).shape[0]  # repro-lint: ignore[R008]\n"
        )
        assert ids(source, path=CORE) == []

    def test_explain_has_rationale(self, capsys):
        assert main(["--explain", "R008"]) == 0
        out = capsys.readouterr().out
        assert "Invariant:" in out and "canonical_columns" in out
        assert "lexsort" in out and "address_ids" in out


class TestSuppression:
    def test_inline_ignore_suppresses_the_rule(self):
        assert ids("m = lo >> 24  # repro-lint: ignore[R006]\n") == []

    def test_inline_ignore_of_other_rule_does_not(self):
        assert ids("m = lo >> 24  # repro-lint: ignore[R001]\n") == ["R006"]

    def test_bare_ignore_suppresses_everything(self):
        assert ids("m = lo >> 24  # repro-lint: ignore\n") == []

    def test_comment_only_line_covers_next_line(self):
        source = "# repro-lint: ignore[R006]\nm = lo >> 24\n"
        assert ids(source) == []

    def test_multiple_ids(self):
        source = (
            'v = random.random() + int(lo >> 24)'
            '  # repro-lint: ignore[R004, R006]\n'
        )
        assert ids(source, path=SIM) == []


class TestEngine:
    def test_syntax_error_yields_e000(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [f.rule_id for f in findings] == ["E000"]

    def test_finding_format(self):
        finding = Finding("a/b.py", 3, 7, "R006", "msg")
        assert finding.format() == "a/b.py:3:7: R006 msg"
        assert finding.format_github().startswith("::error file=a/b.py,line=3")

    def test_every_rule_has_rationale_and_title(self):
        for rule in RULES:
            assert rule.rule_id.startswith("R")
            assert rule.title
            assert "Invariant:" in rule.rationale
            assert get_rule(rule.rule_id.lower()) is rule

    def test_repo_source_tree_is_clean(self):
        # The gate CI enforces: the shipped codebase itself lints clean.
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCli:
    def test_explain_known_rule(self, capsys):
        assert main(["--explain", "R001"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "7.000000000000001" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["--explain", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("m = lo >> 24\n")
        assert main([str(bad)]) == 1
        captured = capsys.readouterr()
        assert "R006" in captured.out
        assert "finding" in captured.err

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("m = lo >> np.uint64(24)\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    def test_github_annotations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("m = lo >> 24\n")
        assert main(["--github", str(bad)]) == 1
        assert "::error file=" in capsys.readouterr().out
