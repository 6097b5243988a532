"""Per-rule positive/negative fixtures for rule pack A.

Every rule gets at least one snippet that must trip it (the seeded
hazard) and one legitimate look-alike that must not (the false-positive
guard) — the acceptance contract of the analyzer.
"""

import textwrap

from repro.lint import lint_file
from repro.lint.engine import select_rules


def run_rule(tmp_path, rule_id, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_file(path, select_rules([rule_id]), root=tmp_path)


class TestHashOfId:  # REP-D01
    def test_flags_id_inside_hash(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D01",
            "key = hash((id(type(self)), index))\n",
        )
        assert [f.rule for f in findings] == ["REP-D01"]

    def test_flags_nested_expression(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D01",
            "key = hash((1, (2, id(obj))))\n",
        )
        assert len(findings) == 1

    def test_identity_hash_without_builtin_hash_ok(self, tmp_path):
        # a mutable object's __hash__ returning id(self) directly (a
        # documented identity hash) is not D01 material
        findings = run_rule(
            tmp_path, "REP-D01",
            """\
            class LinExpr:
                def __hash__(self):
                    return id(self)
            """,
        )
        assert findings == []

    def test_plain_hash_ok(self, tmp_path):
        assert run_rule(tmp_path, "REP-D01", "key = hash((1, 2))\n") == []


class TestBuiltinHash:  # REP-D02
    def test_flags_hash_outside_dunder(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D02",
            """\
            def cache_key(name):
                return hash(name)
            """,
        )
        assert [f.rule for f in findings] == ["REP-D02"]

    def test_hash_inside_dunder_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D02",
            """\
            class Variable:
                def __hash__(self):
                    return hash((7, self.index))
            """,
        )
        assert findings == []

    def test_nested_function_inside_dunder_still_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D02",
            """\
            class C:
                def __hash__(self):
                    def inner():
                        return hash(self.key)
                    return inner()
            """,
        )
        assert findings == []


class TestWallClock:  # REP-D03
    def test_flags_time_time(self, tmp_path):
        findings = run_rule(tmp_path, "REP-D03", "t = time.time()\n")
        assert [f.rule for f in findings] == ["REP-D03"]

    def test_flags_datetime_now(self, tmp_path):
        findings = run_rule(tmp_path, "REP-D03", "t = datetime.now()\n")
        assert len(findings) == 1

    def test_perf_counter_ok(self, tmp_path):
        # monotonic durations are fine — only absolute wall time leaks
        assert run_rule(tmp_path, "REP-D03", "t = time.perf_counter()\n") == []

    def test_obs_allowlist(self, tmp_path):
        obs_dir = tmp_path / "repro" / "obs"
        obs_dir.mkdir(parents=True)
        path = obs_dir / "tracer.py"
        path.write_text("start = time.time()\n")
        findings = lint_file(path, select_rules(["REP-D03"]), root=tmp_path)
        assert findings == []


class TestGlobalRandom:  # REP-D04
    def test_flags_module_level_call(self, tmp_path):
        findings = run_rule(tmp_path, "REP-D04", "x = random.random()\n")
        assert [f.rule for f in findings] == ["REP-D04"]

    def test_flags_shuffle_and_seed(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D04",
            "random.seed(0)\nrandom.shuffle(items)\n",
        )
        assert len(findings) == 2

    def test_seeded_instance_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D04",
            """\
            rng = random.Random(seed)
            x = rng.random()
            rng.shuffle(items)
            """,
        )
        assert findings == []


class TestSetIteration:  # REP-D05
    def test_flags_for_over_set_call(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D05",
            """\
            for key in set(names):
                out.write(key)
            """,
        )
        assert [f.rule for f in findings] == ["REP-D05"]

    def test_flags_comprehension_over_set_literal(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D05",
            "rows = [k for k in {'a', 'b'}]\n",
        )
        assert len(findings) == 1

    def test_sorted_wrapping_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D05",
            """\
            for key in sorted(set(names)):
                out.write(key)
            """,
        )
        assert findings == []


class TestFixedTempFile:  # REP-D06
    def test_flags_fixed_name_next_to_replace(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D06",
            """\
            def store(path, data):
                tmp = path + ".tmp"
                write(tmp, data)
                os.replace(tmp, path)
            """,
        )
        assert [f.rule for f in findings] == ["REP-D06"]

    def test_mkstemp_suffix_kwarg_exempt(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D06",
            """\
            def store(path, data):
                fd, tmp = tempfile.mkstemp(
                    dir=dirname, prefix="cache-", suffix=".tmp"
                )
                write(fd, data)
                os.replace(tmp, path)
            """,
        )
        assert findings == []

    def test_no_replace_in_module_means_no_race(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D06",
            "SCRATCH = 'work.tmp'\n",
        )
        assert findings == []


class TestUnsortedDumps:  # REP-D07
    def test_flags_unsorted_dumps_in_write(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D07",
            "handle.write(json.dumps(record) + '\\n')\n",
        )
        assert [f.rule for f in findings] == ["REP-D07"]

    def test_flags_write_text(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D07",
            "Path(path).write_text(json.dumps(doc, indent=2))\n",
        )
        assert len(findings) == 1

    def test_sorted_dumps_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D07",
            "handle.write(json.dumps(record, sort_keys=True) + '\\n')\n",
        )
        assert findings == []

    def test_dumps_outside_write_ok(self, tmp_path):
        # e.g. content-hash key material hashed, not persisted as a record
        findings = run_rule(
            tmp_path, "REP-D07",
            "blob = json.dumps(payload)\n",
        )
        assert findings == []


class TestSetSum:  # REP-D08
    def test_flags_sum_over_set_call(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = sum(set(values))\n",
        )
        assert [f.rule for f in findings] == ["REP-D08"]

    def test_flags_sum_over_set_literal(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = sum({a, b, c})\n",
        )
        assert len(findings) == 1

    def test_flags_generator_sourced_from_set(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = sum(w[k] for k in set(keys))\n",
        )
        assert len(findings) == 1

    def test_flags_math_fsum_over_set_comp(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = math.fsum({x * 2 for x in xs})\n",
        )
        assert len(findings) == 1

    def test_sorted_set_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = sum(sorted(set(values)))\n",
        )
        assert findings == []

    def test_sum_over_list_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-D08",
            "total = sum(values)\nother = sum(x for x in rows)\n",
        )
        assert findings == []


class TestBlockingInAsync:  # REP-C01
    def test_flags_sleep_in_async_def(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C01",
            """\
            async def runner():
                time.sleep(1)
            """,
        )
        assert [f.rule for f in findings] == ["REP-C01"]

    def test_flags_open_and_subprocess(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C01",
            """\
            async def runner():
                with open("f") as handle:
                    subprocess.run(["ls"])
            """,
        )
        assert len(findings) == 2

    def test_sync_def_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C01",
            """\
            def runner():
                time.sleep(1)
            """,
        )
        assert findings == []

    def test_nested_sync_def_resets(self, tmp_path):
        # a nested sync def is typically shipped to an executor
        findings = run_rule(
            tmp_path, "REP-C01",
            """\
            async def runner():
                def worker():
                    time.sleep(1)
                await loop.run_in_executor(None, worker)
            """,
        )
        assert findings == []

    def test_asyncio_sleep_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C01",
            """\
            async def runner():
                await asyncio.sleep(1)
            """,
        )
        assert findings == []


class TestBroadExcept:  # REP-C02
    def test_flags_except_exception(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C02",
            """\
            try:
                work()
            except Exception:
                pass
            """,
        )
        assert [f.rule for f in findings] == ["REP-C02"]

    def test_flags_bare_except(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C02",
            """\
            try:
                work()
            except:
                pass
            """,
        )
        assert len(findings) == 1

    def test_flags_exception_in_tuple(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C02",
            """\
            try:
                work()
            except (ValueError, Exception):
                pass
            """,
        )
        assert len(findings) == 1

    def test_specific_types_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C02",
            """\
            try:
                work()
            except (ValueError, KeyError) as exc:
                raise SolverError(str(exc)) from exc
            """,
        )
        assert findings == []


class TestSwallowedBaseException:  # REP-C03
    def test_flags_swallowing_handler(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C03",
            """\
            try:
                work()
            except BaseException:
                log()
            """,
        )
        assert [f.rule for f in findings] == ["REP-C03"]

    def test_reraising_handler_ok(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C03",
            """\
            try:
                work()
            except BaseException:
                cleanup()
                raise
            """,
        )
        assert findings == []

    def test_except_exception_not_this_rule(self, tmp_path):
        findings = run_rule(
            tmp_path, "REP-C03",
            """\
            try:
                work()
            except Exception:
                pass
            """,
        )
        assert findings == []


class TestSelfLint:
    """The acceptance gate: the shipped sources are clean."""

    def test_src_tree_is_clean(self, repo_root):
        from repro.lint import lint_paths

        findings = lint_paths([str(repo_root / "src")], root=repo_root)
        assert findings == [], "\n".join(f.render() for f in findings)
