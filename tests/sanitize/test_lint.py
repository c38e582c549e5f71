"""``repro lint``: emit-site schema checks, wall-clock/RNG hygiene,
unused imports, direct construction, schema<->emitter drift, span
balance (SIM301) and suppressions; plus the one-parse-per-file
pipeline, the production-tree gate and the docs rule catalog."""

import ast
import os
import re
import textwrap

import pytest

import repro
from repro.sanitize import lint_paths, lint_source
from repro.sanitize.rules import RULES
from repro.simulate import schema
from repro.simulate.schema import TRACE_SCHEMA, validate_emitters

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def findings_for(source):
    """The per-file (LNT) and suppression (MET) findings of one module."""
    return [f for f in lint_source(textwrap.dedent(source), "mod.py")
            if f.rule_id.startswith(("LNT", "MET"))]


def codes(source):
    return [f.code for f in findings_for(source)]


def span_codes(source):
    """The span-balance (SIM) and suppression (MET) findings."""
    return [f.code for f in lint_source(textwrap.dedent(source), "mod.py")
            if f.rule_id.startswith(("SIM", "MET"))]


# ---------------------------------------------------------------------------
# unknown-kind / missing-field
# ---------------------------------------------------------------------------

def test_record_of_undeclared_kind():
    assert codes("""
        def go(trace, t):
            trace.record(t, "no.such.kind", node="n")
    """) == ["unknown-kind"]


def test_span_of_undeclared_base():
    assert codes("""
        def go(tracer):
            with tracer.span("no.such.span", node="n"):
                pass
    """) == ["unknown-kind"]


def test_record_missing_required_field():
    found = findings_for("""
        def go(trace, t):
            trace.record(t, "qp.destroy", qp=3)
    """)
    assert [f.code for f in found] == ["missing-field"]
    assert "node" in found[0].message


def test_record_with_all_required_fields_is_clean():
    assert codes("""
        def go(trace, t):
            trace.record(t, "qp.destroy", qp=3, node="n")
    """) == []


def test_splatted_fields_are_skipped():
    # **fields is dynamic; the runtime SchemaRule owns that case.
    assert codes("""
        def go(trace, t, fields):
            trace.record(t, "qp.destroy", **fields)
    """) == []


def test_span_with_all_required_fields_is_clean():
    assert codes("""
        def go(tracer):
            with tracer.span("blcr.checkpoint", proc="p", node="n",
                             incremental=False):
                pass
    """) == []


def test_span_missing_required_field():
    found = findings_for("""
        def go(tracer):
            with tracer.span("blcr.checkpoint", proc="p"):
                pass
    """)
    assert [f.code for f in found] == ["missing-field"]


def test_dynamic_kind_is_not_checked():
    assert codes("""
        def go(trace, t, kind):
            trace.record(t, kind, node="n")
    """) == []


# ---------------------------------------------------------------------------
# wall-clock / unseeded randomness
# ---------------------------------------------------------------------------

def test_wall_clock_time_call():
    assert codes("""
        import time
        def go():
            return time.time()
    """) == ["wall-clock"]


def test_wall_clock_perf_counter():
    assert codes("""
        import time
        def go():
            return time.perf_counter()
    """) == ["wall-clock"]


def test_wall_clock_datetime_now():
    assert codes("""
        from datetime import datetime
        def go():
            return datetime.now()
    """) == ["wall-clock"]


def test_global_random_module():
    assert codes("""
        import random
        def go():
            return random.random()
    """) == ["wall-clock"]


def test_unseeded_default_rng():
    assert codes("""
        from numpy.random import default_rng
        def go():
            return default_rng()
    """) == ["wall-clock"]


def test_seeded_default_rng_is_clean():
    assert codes("""
        from numpy.random import default_rng
        def go(seed):
            return default_rng(seed)
    """) == []


@pytest.mark.parametrize("imports,call", [
    ("import numpy as np", "np.random.rand()"),
    ("import numpy as np", "np.random.random()"),
    ("import numpy as np", "np.random.normal(0.0, 1.0)"),
    ("import numpy as np", "np.random.choice([1, 2])"),
    ("import numpy as np", "np.random.seed(0)"),
    ("import numpy.random as npr", "npr.uniform()"),
    ("import numpy as np", "np.random.RandomState()"),
    ("import numpy as np", "np.random.default_rng(None)"),
    ("from numpy.random import default_rng", "default_rng(seed=None)"),
    ("from random import random", "random()"),
])
def test_global_or_unseeded_rng(imports, call):
    assert codes(f"""
        {imports}
        def go():
            return {call}
    """) == ["wall-clock"]


@pytest.mark.parametrize("imports,call", [
    ("import numpy as np", "np.random.default_rng(seed)"),
    ("import numpy as np", "np.random.Generator(np.random.PCG64(seed))"),
    ("import numpy as np", "np.random.SeedSequence(seed)"),
    ("import numpy as np", "np.random.RandomState(seed)"),
    ("import random", "random.Random(seed).random()"),
])
def test_seeded_rng_is_clean(imports, call):
    assert codes(f"""
        {imports}
        def go(seed):
            return {call}
    """) == []


def test_sim_now_is_clean():
    assert codes("""
        def go(sim):
            return sim.now
    """) == []


# ---------------------------------------------------------------------------
# unused-import
# ---------------------------------------------------------------------------

def test_unused_import_flagged():
    found = findings_for("""
        import os
        import json

        def go():
            return json.dumps({})
    """)
    assert [f.code for f in found] == ["unused-import"]
    assert "'os'" in found[0].message


def test_quoted_annotation_counts_as_use():
    # The TYPE_CHECKING idiom: imported only for a forward reference.
    assert codes("""
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from foo import Bar

        def go(x: "Bar") -> "Bar":
            y: "Bar" = x
            return y
    """) == []


def test_cast_string_argument_counts_as_use():
    assert codes("""
        from typing import TYPE_CHECKING, cast
        if TYPE_CHECKING:
            from foo import Bar

        def go(x):
            return cast("Bar", x)
    """) == []


def test_type_alias_string_value_counts_as_use():
    assert codes("""
        from typing import TYPE_CHECKING, TypeAlias
        if TYPE_CHECKING:
            from foo import Bar

        Pair: TypeAlias = "Bar"
    """) == []


def test_newtype_and_typevar_string_bounds_count_as_use():
    assert codes("""
        from typing import TYPE_CHECKING, NewType, TypeVar
        if TYPE_CHECKING:
            from foo import Bar, Baz

        Handle = NewType("Handle", "Bar")
        T = TypeVar("T", bound="Baz")
    """) == []


def test_nested_string_annotation_counts_as_use():
    assert codes("""
        from typing import TYPE_CHECKING, List
        if TYPE_CHECKING:
            from foo import Bar

        def go(xs: "List[Bar]"):
            return xs
    """) == []


def test_docstring_mention_is_not_a_use():
    assert codes('''
        from foo import Bar

        def go():
            """Bar is mentioned here but never used."""
            return None
    ''') == ["unused-import"]


def test_dunder_all_export_counts_as_use():
    assert codes("""
        from foo import Bar

        __all__ = ["Bar"]
    """) == []


def test_init_py_is_exempt_from_import_check():
    assert lint_source("from foo import Bar\n", "pkg/__init__.py") == []


def test_syntax_error_is_one_finding():
    found = findings_for("def broken(:\n")
    assert [f.code for f in found] == ["syntax-error"]


# ---------------------------------------------------------------------------
# emitter coverage / schema drift
# ---------------------------------------------------------------------------

def test_validate_emitters_flags_drift_both_ways():
    problems = validate_emitters(["qp.destroy", "totally.bogus"])
    text = "\n".join(problems)
    assert "totally.bogus" in text              # emitted but undeclared
    assert "declared" in text                   # declared but unemitted
    # qp.destroy itself must not be reported as unemitted.
    assert not any("'qp.destroy'" in p and "declared" in p
                   for p in problems)


def test_validate_emitters_clean_when_all_covered():
    span_bases = {k[: k.rindex(".")] for k in TRACE_SCHEMA
                  if k.endswith((".start", ".end"))}
    plain = {k for k in TRACE_SCHEMA
             if not k.endswith((".start", ".end"))}
    assert validate_emitters(sorted(span_bases | plain)) == []


def test_lint_paths_folds_in_emitter_drift(monkeypatch):
    """Linting the schema module checks every declared kind has an
    emitter among the linted modules."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    monkeypatch.setitem(TRACE_SCHEMA, "bogus.unemitted",
                        TRACE_SCHEMA["qp.destroy"])
    drift = [f for f in lint_paths([pkg]).findings
             if f.code == "emitter-drift"]
    assert [f.rule_id for f in drift] == ["LNT006"]
    assert "'bogus.unemitted'" in drift[0].message
    assert drift[0].path == os.path.normpath(schema.__file__)


def test_emitter_coverage_needs_the_schema_module(tmp_path):
    """Without repro.simulate.schema among the inputs there is no
    coverage to judge: a lone emit site is not drift."""
    mod = tmp_path / "m.py"
    mod.write_text("def go(trace, t):\n"
                   "    trace.record(t, 'qp.destroy', qp=1, node='n')\n")
    assert lint_paths([str(tmp_path)]).findings == []


def test_lint_paths_parses_each_file_once(tmp_path, monkeypatch):
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text("def go(sim):\n"
                                     "    yield sim.timeout(1.0)\n")
    real_parse = ast.parse
    parsed = []

    def counting_parse(source, filename="<unknown>", mode="exec", **kw):
        if mode == "exec":
            parsed.append(filename)
        return real_parse(source, filename, mode, **kw)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = lint_paths([str(tmp_path)])
    assert result.findings == []
    assert sorted(parsed) == sorted(result.files)
    assert len(parsed) == 3


def test_production_tree_is_lint_clean():
    """The shipped tree: zero findings over src/repro, every rule."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    findings = lint_paths([pkg]).findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_benchmarks_tree_is_lint_clean():
    """The bench harness and paper benches: zero findings, every rule."""
    findings = lint_paths([os.path.join(REPO_ROOT, "benchmarks")]).findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_production_tree_is_span_and_suppression_clean():
    """src/repro has no span (SIM) or suppression (MET) findings."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    findings = [f for f in lint_paths([pkg]).findings
                if f.rule_id.startswith(("SIM", "MET"))]
    assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# SIM301 span-unbalanced
# ---------------------------------------------------------------------------

def test_sim301_flags_discarded_span():
    assert span_codes('''
        def work(tracer):
            tracer.span("phase", job="j1")
    ''') == ["span-unbalanced"]


def test_sim301_with_scoped_span_is_clean():
    assert span_codes('''
        def work(tracer):
            with tracer.span("phase", job="j1"):
                pass
    ''') == []


def test_sim301_returned_span_is_a_handoff():
    assert span_codes('''
        def make(tracer):
            return tracer.span("phase")
    ''') == []


def test_sim301_flags_assigned_but_never_entered_span():
    assert span_codes('''
        def work(tracer):
            sp = tracer.span("phase")
            sp.annotate(x=1)
    ''') == ["span-unbalanced"]


def test_sim301_manual_enter_with_finally_exit_is_clean():
    assert span_codes('''
        def work(tracer):
            sp = tracer.span("phase")
            sp.__enter__()
            try:
                pass
            finally:
                sp.__exit__(None, None, None)
    ''') == []


def test_sim301_manual_enter_without_finally_is_flagged():
    assert span_codes('''
        def work(tracer):
            sp = tracer.span("phase")
            sp.__enter__()
            sp.__exit__(None, None, None)
    ''') == ["span-unbalanced"]


def test_sim301_flags_manual_enter_across_yields_in_a_restart():
    """A bug no runtime test sees: ``restart_from_file`` entering its
    span by hand, with ``__exit__`` after the yields and outside any
    ``finally``.  Every run that completes balances the span; only a
    restart that raises mid-way leaks the ``span.start``."""
    found = [f for f in lint_source(textwrap.dedent('''
        class RestartEngine:
            def restart_from_file(self, fs, path, metadata):
                sp = self.sim.tracer.span("blcr.restart", mode="file",
                                          proc=metadata.proc_name,
                                          node=self.node_name)
                sp.__enter__()
                yield self.sim.timeout(self.params.restart_proc_overhead)
                proc = yield from self._restore(fs, [(path, metadata)])
                sp.annotate(nbytes=metadata.nbytes)
                sp.__exit__(None, None, None)
                return proc
    '''), "blcr/restart.py") if f.rule_id.startswith("SIM")]
    assert [(f.rule_id, f.line) for f in found] == [("SIM301", 4)]
    assert "RestartEngine.restart_from_file enters span 'sp'" in \
        found[0].message


def test_sim301_self_stored_span_with_exiting_method_is_clean():
    # The migration pipeline's cross-method lifetime: open() enters the
    # run span on self, close() exits it.
    assert span_codes('''
        class Pipeline:
            def open(self, tracer):
                self._run_span = tracer.span("pipeline.run")
                self._run_span.__enter__()
            def close(self):
                self._run_span.__exit__(None, None, None)
    ''') == []


def test_sim301_self_stored_span_never_exited_is_flagged():
    assert span_codes('''
        class Pipeline:
            def open(self, tracer):
                self._run_span = tracer.span("pipeline.run")
                self._run_span.__enter__()
    ''') == ["span-unbalanced"]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_lint_honors_inline_suppression():
    assert span_codes('''
        def work(tracer):
            tracer.span("phase")  # repro: noqa[SIM301]
    ''') == []
    assert codes("""
        import time
        def go():
            return time.time()  # repro: noqa[wall-clock]
    """) == []


def test_lint_flags_unused_suppression():
    assert span_codes("x = 1  # repro: noqa[SIM301]\n") == [
        "unused-suppression"]


def test_retired_rule_id_suppression_is_unknown():
    assert span_codes("x = 1  # repro: noqa[SIM201]\n") == [
        "unknown-suppression"]


# ---------------------------------------------------------------------------
# docs catalog sync
# ---------------------------------------------------------------------------

def _static_analysis_doc():
    doc = os.path.join(REPO_ROOT, "docs", "static-analysis.md")
    with open(doc, "r", encoding="utf-8") as fh:
        return fh.read()


def test_every_rule_id_documented_in_static_analysis_docs():
    text = _static_analysis_doc()
    missing = [rule_id for rule_id in RULES if rule_id not in text]
    assert missing == [], (
        f"rule ids registered but absent from docs/static-analysis.md: "
        f"{missing}")


def test_docs_mention_no_retired_rule_ids():
    documented = set(re.findall(r"\b(?:LNT|SIM|MET)\d{3}\b",
                                _static_analysis_doc()))
    stale = documented - set(RULES)
    assert stale == set(), (
        f"docs/static-analysis.md documents unregistered rule ids: "
        f"{sorted(stale)}")


# ---------------------------------------------------------------------------
# direct-construction
# ---------------------------------------------------------------------------

def test_direct_session_construction_flagged():
    found = findings_for("""
        from repro.core.buffer_manager import RDMAMigrationSession

        def go(sim, cluster, a, b):
            return RDMAMigrationSession(sim, cluster, a, b)
    """)
    assert [f.code for f in found] == ["direct-construction"]
    assert "repro.pipeline.registry" in found[0].message


def test_direct_restart_engine_construction_flagged():
    assert codes("""
        from repro.blcr.restart import RestartEngine

        def go(sim):
            return RestartEngine(sim, "spare0")
    """) == ["direct-construction"]


def test_attribute_call_construction_flagged():
    assert codes("""
        import repro.blcr.restart as r

        def go(sim):
            return r.RestartEngine(sim, "spare0")
    """) == ["direct-construction"]


def test_construction_inside_pipeline_package_exempt():
    source = """
        from repro.blcr.restart import RestartEngine

        def go(sim):
            return RestartEngine(sim, "spare0")
    """
    findings = lint_source(textwrap.dedent(source),
                           "src/repro/pipeline/registry.py")
    assert [f.code for f in findings] == []


def test_construction_inside_baselines_module_exempt():
    source = """
        from repro.core.buffer_manager import RDMAMigrationSession

        def go(sim, cluster, a, b):
            return RDMAMigrationSession(sim, cluster, a, b)
    """
    findings = lint_source(textwrap.dedent(source),
                           "src/repro/core/baselines.py")
    assert [f.code for f in findings] == []
