"""Per-rule unit tests for repro-check: miniature trees per violation."""

from pathlib import Path

from repro.checks.engine import CheckRunner
from repro.checks.project import CheckProject
from repro.checks.rules import CHECK_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "checks"


def findings(sources, select=None):
    """Run the (selected) rule set over in-memory ``{path: source}``."""
    runner = CheckRunner(
        rules=CHECK_RULES.resolve(select=select) if select else None
    )
    project = CheckProject.from_sources(sources)
    return runner.check_project(project).findings


def fired(sources, select=None):
    return {f.rule_id for f in findings(sources, select=select)}


# --- RC101: process-global random ---------------------------------------


def test_rc101_global_random_in_scope():
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert fired({"sim/a.py": src}) == {"RC101"}


def test_rc101_from_import():
    src = "from random import choice\n"
    assert fired({"core/a.py": src}) == {"RC101"}


def test_rc101_seeded_instance_allowed():
    src = (
        "import random\n\n"
        "def f(seed):\n    return random.Random(seed).random()\n"
    )
    assert fired({"sim/a.py": src}) == set()


def test_rc101_out_of_scope_not_flagged():
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert fired({"bench/a.py": src}) == set()


# --- RC102: wall-clock reads --------------------------------------------


def test_rc102_time_time():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert fired({"cvp/a.py": src}) == {"RC102"}


def test_rc102_datetime_now():
    src = "import datetime\n\ndef f():\n    return datetime.datetime.now()\n"
    assert fired({"sim/a.py": src}) == {"RC102"}


def test_rc102_perf_counter_allowed():
    src = (
        "from time import perf_counter\n\n"
        "def f():\n    return perf_counter()\n"
    )
    assert fired({"sim/a.py": src}) == set()


# --- RC103: id()-keyed maps ---------------------------------------------


def test_rc103_id_subscript_and_membership():
    src = (
        "def f(memo, obj):\n"
        "    memo[id(obj)] = 1\n"
        "    return id(obj) in memo\n"
    )
    found = findings({"sim/a.py": src})
    assert [f.rule_id for f in found] == ["RC103", "RC103"]


def test_rc103_id_inside_tuple_key():
    src = (
        "def f(cache, name, obj):\n"
        "    cache.setdefault((\"digests\", id(obj)), {})\n"
        "    cache[(name, id(obj))] = 1\n"
        "    cache[(name, (0, id(obj)))] = 2\n"
        "    return {(name, id(obj)): 3}\n"
    )
    found = findings({"sim/a.py": src})
    assert [(f.rule_id, f.line) for f in found] == [
        ("RC103", 2), ("RC103", 3), ("RC103", 4), ("RC103", 5)
    ]


def test_rc103_plain_id_allowed():
    src = "def f(obj):\n    return id(obj), (id(obj), 1)\n"
    assert fired({"sim/a.py": src}) == set()


# --- RC104: builtin hash() ----------------------------------------------


def test_rc104_builtin_hash():
    src = "def f(key):\n    return hash(key) % 64\n"
    assert fired({"sim/a.py": src}) == {"RC104"}


def test_rc104_hashlib_allowed():
    src = (
        "import hashlib\n\n"
        "def f(key):\n    return hashlib.sha256(key).hexdigest()\n"
    )
    assert fired({"sim/a.py": src}) == set()


# --- RC105: set iteration -----------------------------------------------


def test_rc105_for_over_set_display():
    src = "def f():\n    for x in {1, 2}:\n        print(x)\n"
    assert fired({"sim/a.py": src}) == {"RC105"}


def test_rc105_sum_over_set_call():
    src = "def f(xs):\n    return sum(set(xs))\n"
    assert fired({"sim/a.py": src}) == {"RC105"}


def test_rc105_sorted_set_allowed():
    src = "def f(xs):\n    return sorted(set(xs))\n"
    assert fired({"sim/a.py": src}) == set()


# --- RC106: unsorted filesystem enumeration -----------------------------


def test_rc106_unsorted_listdir():
    src = "import os\n\ndef f(d):\n    return list(os.listdir(d))\n"
    assert fired({"core/a.py": src}) == {"RC106"}


def test_rc106_sorted_glob_allowed():
    src = "def f(root):\n    return sorted(root.glob('*.py'))\n"
    assert fired({"core/a.py": src}) == set()


# --- RC201: run-key derivation coverage ---------------------------------

_CONFIG = (
    "from dataclasses import dataclass\n\n"
    "@dataclass(frozen=True)\n"
    "class SimConfig:\n"
    "    name: str = 'base'\n"
    "    width: int = 4\n"
)


def test_rc201_asdict_is_full_coverage():
    fp = (
        "import dataclasses\n\n"
        "def config_fingerprint(config):\n"
        "    return dataclasses.asdict(config)\n\n"
        "def run_key(name, config):\n"
        "    return (name, config_fingerprint(config))\n"
    )
    assert fired({"config.py": _CONFIG, "cache.py": fp}, ["RC201"]) == set()


def test_rc201_explicit_enumeration_missing_field():
    fp = (
        "def config_fingerprint(config):\n"
        "    return {'name': config.name}\n"
    )
    found = findings({"config.py": _CONFIG, "cache.py": fp}, ["RC201"])
    assert {f.rule_id for f in found} == {"RC201"}
    assert any("width" in f.message for f in found)


def test_rc201_run_key_bypassing_fingerprint():
    fp = (
        "def config_fingerprint(config):\n"
        "    return {'name': config.name, 'width': config.width}\n\n"
        "def run_key(name, config):\n"
        "    return (name, config.name)\n"
    )
    found = findings({"config.py": _CONFIG, "cache.py": fp}, ["RC201"])
    assert any("run_key" in f.message for f in found)


# --- RC202: pinned manifest ---------------------------------------------


def test_rc202_matching_manifest_clean():
    keys = "SIM_CONFIG_KEY_FIELDS = ('name', 'width')\n"
    assert fired({"config.py": _CONFIG, "keys.py": keys}, ["RC202"]) == set()


def test_rc202_new_field_not_in_manifest():
    keys = "SIM_CONFIG_KEY_FIELDS = ('name',)\n"
    found = findings({"config.py": _CONFIG, "keys.py": keys}, ["RC202"])
    assert any("width" in f.message for f in found)


def test_rc202_stale_manifest_entry():
    keys = "SIM_CONFIG_KEY_FIELDS = ('name', 'width', 'gone')\n"
    found = findings({"config.py": _CONFIG, "keys.py": keys}, ["RC202"])
    assert any("gone" in f.message for f in found)


def test_rc202_missing_manifest_is_an_error():
    found = findings({"config.py": _CONFIG}, ["RC202"])
    assert {f.rule_id for f in found} == {"RC202"}


# --- RC203: memo-key aliasing -------------------------------------------


def test_rc203_full_config_key_clean():
    src = (
        "class ExperimentRunner:\n"
        "    def __init__(self):\n"
        "        self._runs = {}\n\n"
        "    def run(self, name, config):\n"
        "        key = (name, config)\n"
        "        self._runs[key] = name\n"
        "        return self._runs[key]\n"
    )
    assert fired({"runner.py": src}, ["RC203"]) == set()


def test_rc203_projected_key_flagged():
    src = (
        "class ExperimentRunner:\n"
        "    def __init__(self):\n"
        "        self._runs = {}\n\n"
        "    def run(self, name, config):\n"
        "        self._runs[(name, config.width)] = name\n"
    )
    found = findings({"runner.py": src}, ["RC203"])
    assert len(found) == 2  # projection + missing full config
    assert all(f.rule_id == "RC203" for f in found)


# --- RC204: schema-stamped caches ---------------------------------------


def test_rc204_schema_stamped_cache_clean():
    src = (
        "import json\n\n"
        "class ResultCache:\n"
        "    def load(self, key):\n"
        "        payload = json.loads(self._read(key))\n"
        "        if payload.get('schema') != 1:\n"
        "            return None\n"
        "        return payload\n\n"
        "    def store(self, key, value):\n"
        "        self._write(key, json.dumps({'schema': 1, 'v': value}))\n"
    )
    assert fired({"cache.py": src}, ["RC204"]) == set()


def test_rc204_in_memory_cache_skipped():
    src = (
        "class DecodeCache:\n"
        "    def load(self, key):\n"
        "        return self._memo.get(key)\n\n"
        "    def store(self, key, value):\n"
        "        self._memo[key] = value\n"
    )
    assert fired({"decoded.py": src}, ["RC204"]) == set()


def test_rc204_unstamped_persistent_cache_flagged():
    src = (
        "import json\n\n"
        "class ResultCache:\n"
        "    def load(self, key):\n"
        "        return json.loads(self._read(key))\n\n"
        "    def store(self, key, value):\n"
        "        self._write(key, json.dumps(value))\n"
    )
    found = findings({"cache.py": src}, ["RC204"])
    assert len(found) == 2  # load and store each flagged


# --- RC301/RC303: pool submissions --------------------------------------


def test_rc301_module_level_function_clean():
    src = (
        "import concurrent.futures\n\n"
        "def work(task):\n    return task\n\n"
        "def fan(tasks):\n"
        "    with concurrent.futures.ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, t) for t in tasks]\n"
    )
    assert fired({"parallel.py": src}, ["RC301", "RC303"]) == set()


def test_rc301_lambda_and_nested_flagged():
    src = (
        "def fan(pool, tasks):\n"
        "    def local(t):\n        return t\n"
        "    a = pool.submit(local, tasks[0])\n"
        "    b = pool.submit(lambda t: t, tasks[0])\n"
        "    return a, b\n"
    )
    found = findings({"parallel.py": src}, ["RC301"])
    assert len(found) == 2


def test_rc303_unpicklable_arguments():
    src = (
        "def fan(pool, tasks, path):\n"
        "    handle = open(path)\n"
        "    a = pool.submit(print, handle)\n"
        "    b = pool.submit(sum, (t for t in tasks))\n"
        "    return a, b\n"
    )
    found = findings({"parallel.py": src}, ["RC303"])
    assert len(found) == 2


# --- RC302: worker-module globals ---------------------------------------


def test_rc302_mutable_global_in_pool_module():
    src = (
        "import concurrent.futures\n\n"
        "_STATE = {}\n\n"
        "def fan(tasks):\n"
        "    with concurrent.futures.ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(len, t) for t in tasks]\n"
    )
    assert fired({"parallel.py": src}, ["RC302"]) == {"RC302"}


def test_rc302_non_pool_module_not_flagged():
    src = "_STATE = {}\n"
    assert fired({"registry.py": src}, ["RC302"]) == set()


# --- RC4xx: engine parity (on-disk fixture + clean variant) --------------

_SIM_CONFIG_OK = (
    "from dataclasses import dataclass\n\n"
    "@dataclass(frozen=True)\n"
    "class SimConfig:\n"
    "    width: int = 4\n"
    "    depth: int = 2\n\n"
    "SIM_CONFIG_KEY_FIELDS = ('width', 'depth')\n"
)

_STATS_OK = (
    "class SimStats:\n"
    "    enabled: bool = True\n"
    "    instructions: int = 0\n"
    "    cycles: int = 0\n\n"
    "    def count_instruction(self):\n"
    "        self.instructions += 1\n\n"
    "    def to_dict(self):\n"
    "        return {'instructions': self.instructions,\n"
    "                'cycles': self.cycles}\n"
)

_ENGINE_OK = (
    "from stats import SimStats\n\n"
    "class Engine:\n"
    "    def run(self, n):\n"
    "        config = self.config\n"
    "        for _ in range(n * config.width):\n"
    "            self.stats.count_instruction()\n"
    "        self.stats.cycles = n\n"
)

_VECTOR_OK = (
    "from engine import Engine\n\n"
    "class VectorEngine(Engine):\n"
    "    def run(self, n):\n"
    "        config = self.config\n"
    "        self.stats.instructions += n * config.width\n"
    "        self.stats.cycles = n\n"
)


def test_rc4xx_parity_clean():
    sources = {
        "simconfig.py": _SIM_CONFIG_OK,
        "stats.py": _STATS_OK,
        "engine.py": _ENGINE_OK,
        "vector_engine.py": _VECTOR_OK,
    }
    assert fired(sources, ["RC4"]) == set()


def test_rc401_vector_dropping_counter():
    vector = _VECTOR_OK.replace(
        "        self.stats.instructions += n * config.width\n", ""
    )
    sources = {
        "simconfig.py": _SIM_CONFIG_OK,
        "stats.py": _STATS_OK,
        "engine.py": _ENGINE_OK,
        "vector_engine.py": vector,
    }
    found = findings(sources, ["RC401"])
    assert [f.rule_id for f in found] == ["RC401"]
    assert "instructions" in found[0].message


def test_rc402_vector_ignoring_knob():
    vector = _VECTOR_OK.replace("n * config.width", "n")
    sources = {
        "simconfig.py": _SIM_CONFIG_OK,
        "stats.py": _STATS_OK,
        "engine.py": _ENGINE_OK,
        "vector_engine.py": vector,
    }
    found = findings(sources, ["RC402"])
    assert [f.rule_id for f in found] == ["RC402"]
    assert "width" in found[0].message


def test_rc403_to_dict_missing_counter():
    stats = _STATS_OK.replace(",\n                'cycles': self.cycles", "")
    found = findings({"stats.py": stats}, ["RC403"])
    assert [f.rule_id for f in found] == ["RC403"]
    assert "cycles" in found[0].message


_WALK_OK = (
    "class FlatHierarchy:\n"
    "    def prefetch_data(self, addr, fill_l1):\n"
    "        self.pf_l2 += 1\n"
    "        if fill_l1:\n"
    "            self.pf_l1d += 1\n\n"
    "    def prefetch_data_run(self, requests, now):\n"
    "        for addr, fill_l1 in requests:\n"
    "            self.pf_l2 += 1\n"
    "            if fill_l1:\n"
    "                self.pf_l1d += 1\n"
)


def test_rc404_matching_twin_clean():
    assert fired({"sim/walk.py": _WALK_OK}, ["RC404"]) == set()


def test_rc404_twin_dropping_counter():
    twin = _WALK_OK.replace(
        "            if fill_l1:\n"
        "                self.pf_l1d += 1\n",
        "",
    )
    found = findings({"sim/walk.py": twin}, ["RC404"])
    assert [f.rule_id for f in found] == ["RC404"]
    assert "pf_l1d" in found[0].message
    assert "prefetch_data_run" in found[0].message


def test_rc404_delegating_twin_clean():
    """A twin that calls its scalar counterpart inherits its updates."""
    src = (
        "class FlatHierarchy:\n"
        "    def prefetch_data(self, addr, fill_l1):\n"
        "        self.pf_l2 += 1\n"
        "        if fill_l1:\n"
        "            self.pf_l1d += 1\n\n"
        "    def prefetch_data_run(self, requests, now):\n"
        "        for addr, fill_l1 in requests:\n"
        "            self.prefetch_data(addr, fill_l1)\n"
    )
    assert fired({"sim/walk.py": src}, ["RC404"]) == set()


def test_rc404_multi_counterpart_stem():
    """predict_update_batch resolves to predict + update; the twin must
    cover the union of both counterparts' counters."""
    src = (
        "class Predictor:\n"
        "    def predict(self, ip):\n"
        "        self.predictions += 1\n\n"
        "    def update(self, ip, taken):\n"
        "        self.updates += 1\n\n"
        "    def predict_update_batch(self, ips, takens):\n"
        "        self.predictions += len(ips)\n"
    )
    found = findings({"sim/pred.py": src}, ["RC404"])
    assert [f.rule_id for f in found] == ["RC404"]
    assert "updates" in found[0].message
    fixed = src + "        self.updates += len(ips)\n"
    assert fired({"sim/pred.py": fixed}, ["RC404"]) == set()


def test_rc404_recorder_call_parity():
    """A recorder call made by the scalar counterpart counts as a
    counter the twin must also make."""
    src = (
        "class Walker:\n"
        "    def lookup(self, ip):\n"
        "        self.hits += 1\n"
        "        self.stats.count_instruction()\n\n"
        "    def lookup_batch(self, ips):\n"
        "        self.hits += len(ips)\n"
    )
    found = findings(
        {"stats.py": _STATS_OK, "sim/walker.py": src}, ["RC404"]
    )
    assert [f.rule_id for f in found] == ["RC404"]
    assert "count_instruction" in found[0].message


def test_rc404_unresolvable_stem_skipped():
    """A *_run method whose stem is not built from sibling names is not
    a batched twin."""
    src = (
        "class Job:\n"
        "    def execute(self):\n"
        "        self.launches += 1\n\n"
        "    def dry_run(self):\n"
        "        return None\n"
    )
    assert fired({"sim/job.py": src}, ["RC404"]) == set()


def test_rc4xx_inherited_init_reads_are_shared():
    """Config reads in non-overridden methods belong to both engines."""
    engine = (
        "from stats import SimStats\n\n"
        "class Engine:\n"
        "    def __init__(self, config):\n"
        "        self.depth = config.depth\n\n"
        "    def run(self, n):\n"
        "        config = self.config\n"
        "        self.stats.instructions += n * config.width\n"
        "        self.stats.cycles = n\n"
    )
    sources = {
        "simconfig.py": _SIM_CONFIG_OK,
        "stats.py": _STATS_OK,
        "engine.py": engine,
        "vector_engine.py": _VECTOR_OK,
    }
    assert fired(sources, ["RC402"]) == set()


# --- RC501/RC502: failure handling in fleet code ------------------------


def test_rc501_silent_except_in_scope():
    src = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError:\n"
        "        return None\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == {"RC501"}
    assert fired({"faults/a.py": src}, ["RC501"]) == {"RC501"}


def test_rc501_out_of_scope_not_flagged():
    src = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError:\n"
        "        return None\n"
    )
    assert fired({"bench/a.py": src}, ["RC501"]) == set()


def test_rc501_reraise_clean():
    src = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError as exc:\n"
        "        raise RuntimeError(str(exc)) from exc\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == set()


def test_rc501_obs_event_clean():
    src = (
        "from repro import obs\n\n"
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError:\n"
        "        obs.emit_event('cache.corrupt', path=str(path))\n"
        "        return None\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == set()


def test_rc501_counter_bump_clean():
    src = (
        "def load(cache, key):\n"
        "    try:\n"
        "        return cache.read(key)\n"
        "    except OSError:\n"
        "        cache.counters.miss()\n"
        "        return None\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == set()


def test_rc501_stderr_report_clean():
    src = (
        "import sys\n\n"
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError as exc:\n"
        "        print(f'skipping {path}: {exc}', file=sys.stderr)\n"
        "        return None\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == set()


def test_rc501_stdout_print_still_flagged():
    src = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError:\n"
        "        print('oops')\n"
        "        return None\n"
    )
    assert fired({"experiments/a.py": src}, ["RC501"]) == {"RC501"}


def test_rc502_bare_except():
    src = (
        "def guard(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except:\n"
        "        raise\n"
    )
    assert fired({"faults/a.py": src}, ["RC502"]) == {"RC502"}


def test_rc502_typed_except_clean():
    src = (
        "def guard(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        raise\n"
    )
    assert fired({"faults/a.py": src}, ["RC502"]) == set()


# --- the on-disk negative-control fixtures ------------------------------


def check_fixture(name):
    runner = CheckRunner()
    report = runner.check_paths([FIXTURES / name])
    return {f.rule_id for f in report.findings}


def test_fixture_rc1xx_fires_every_determinism_rule():
    assert check_fixture("rc1xx") == {
        "RC101", "RC102", "RC103", "RC104", "RC105", "RC106",
    }


def test_fixture_rc2xx_fires_every_cachekey_rule():
    assert check_fixture("rc2xx") == {"RC201", "RC202", "RC203", "RC204"}


def test_fixture_rc3xx_fires_every_worker_rule():
    assert check_fixture("rc3xx") == {"RC301", "RC302", "RC303"}


def test_fixture_rc4xx_fires_every_parity_rule():
    assert check_fixture("rc4xx") == {"RC401", "RC402", "RC403", "RC404"}


def test_fixture_rc5xx_fires_every_robustness_rule():
    assert check_fixture("rc5xx") == {"RC501", "RC502"}
