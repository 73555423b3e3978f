"""Import hygiene: a run loads only the modules it executes.

Each check runs in a fresh interpreter, so modules this test session already
imported cannot hide a regression.
"""

import logging
import os
import pickle
import re
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import pytest

from analogopt.config import RunConfig, build_model, build_task_card
from analogopt.llm import LlmConfig, ScriptedLlmClient, propose
from analogopt.orchestrator import run
from analogopt.surrogate import gp_fit
from conftest import _amp2_reply, chat_body

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PACKAGES = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.stats")
scipy_version = version("scipy")


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_config_build_skip_scipy_stats_and_requests():
    out = _python(
        "import sys\n"
        "import analogopt, analogopt.cli\n"
        "from analogopt.config import RunConfig, build_model, build_task_card\n"
        "config = RunConfig(method='ado_llm', preset='amp2', mock='random')\n"
        "build_task_card(config, build_model(config))\n"
        "for name in ('scipy.stats', 'requests', 'scipy.linalg', 'scipy.optimize',\n"
        "             'scipy.special', 'scipy'):\n"
        "    print(name, name in sys.modules)\n"
    )
    loaded = dict(line.split() for line in out.splitlines())
    assert loaded == {
        # scipy's directory is located without running its package __init__
        "scipy": "False",
        "scipy.stats": "False",
        "requests": "False",
        # L-BFGS-B, LAPACK and the special functions are loaded from their
        # extension modules, without these packages' __init__
        "scipy.optimize": "False",
        "scipy.linalg": "False",
        "scipy.special": "False",
    }


def test_gp_runs_never_import_scipy_optimize():
    # No scipy subpackage may load on the GP path: a lazy
    # ``from scipy.<package> import ...`` would show up here, after both
    # methods that fit a GP and maximize qEI.
    out = _python(
        "import sys\n"
        "from analogopt.acquisition import AcquisitionConfig\n"
        "from analogopt.config import RunConfig\n"
        "from analogopt.orchestrator import run\n"
        "from analogopt.surrogate import GpFitConfig\n"
        "acq = AcquisitionConfig(mc_samples=16, restarts=1, raw_candidates=8, maxiter=3)\n"
        "fit = GpFitConfig(restarts=1, maxiter=5)\n"
        "for fields in (\n"
        "    dict(method='gp_bo', preset='branin', init_strategy='uniform_random',\n"
        "         llm_queries_per_step=0, gp_queries_per_step=3),\n"
        "    dict(method='ado_llm', preset='amp2', llm_queries_per_step=1,\n"
        "         gp_queries_per_step=2),\n"
        "):\n"
        "    run(RunConfig(**fields, n_init=3, n_iter=2, seed=1, mock='random',\n"
        "                  acquisition=acq, gp_fit=fit))\n"
        "for name in sys.argv[1:]:\n"
        "    print(name, name in sys.modules)\n",
        *SCIPY_PACKAGES,
    )
    loaded = dict(line.split() for line in out.splitlines())
    assert loaded == dict.fromkeys(SCIPY_PACKAGES, "False")



@pytest.mark.parametrize("first", ["analogopt", "scipy"])
def test_scipy_extensions_are_shared_with_scipy_packages(first):
    # The extensions analogopt loads from their files hold the objects scipy's
    # packages use, and stay reachable as attributes of those packages,
    # whichever is imported first.
    out = _python(
        "import sys\n"
        "def scipy_packages():\n"
        "    import scipy.linalg.lapack, scipy.optimize, scipy.special\n"
        "if sys.argv[1] == 'scipy':\n"
        "    scipy_packages()\n"
        "from analogopt import surrogate\n"
        "if sys.argv[1] == 'analogopt':\n"
        "    # as a GP call does, before any scipy package is imported\n"
        "    surrogate._kernels()\n"
        "    assert surrogate._kernels.cache_info().currsize == 1\n"
        "scipy_packages()\n"
        "import scipy.linalg.lapack, scipy.special\n"
        "from scipy.optimize._lbfgsb import setulb\n"
        "print(sorted({'_lbfgsb', '_flapack', '_special_ufuncs'} & set(sys.modules)))\n"
        "kernels = surrogate._kernels()\n"
        "print(scipy.special.expit is kernels.expit,\n"
        "      scipy.linalg.lapack.dpotrf is kernels.dpotrf,\n"
        "      setulb is kernels.setulb,\n"
        "      scipy.optimize._lbfgsb.setulb is kernels.setulb,\n"
        "      scipy.linalg._flapack.dpotrf is kernels.dpotrf,\n"
        "      scipy.special._special_ufuncs.expit is kernels.expit)\n",
        first,
    )
    assert out.splitlines() == ["[]", "True True True True True True"]

SCIPY_KERNELS = ("_lbfgsb", "_flapack", "_special_ufuncs")
# Prints which scipy kernel extensions the interpreter has mapped, and whether
# the kernel accessor has loaded them yet (1) or not (0).
PRINT_KERNELS = (
    "import os\n"
    "from analogopt import surrogate\n"
    "with open('/proc/self/maps') as handle:\n"
    "    maps = handle.read()\n"
    f"print([n for n in {SCIPY_KERNELS!r} if os.sep + n + '.' in maps])\n"
    "print(surrogate._kernels.cache_info().currsize)\n"
)


@pytest.mark.parametrize("method, loaded", [("llm_only", False), ("gp_bo", True)])
def test_scipy_kernels_load_only_in_runs_that_fit_a_gp(tmp_path, method, loaded):
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps")
    out = _python(
        "import sys\n"
        "from analogopt import cli\n"
        "from analogopt.acquisition import AcquisitionConfig\n"
        "from analogopt.config import RunConfig\n"
        "from analogopt.orchestrator import run\n"
        "from analogopt.surrogate import GpFitConfig\n"
        "acq = AcquisitionConfig(mc_samples=16, restarts=1, raw_candidates=8, maxiter=3)\n"
        "run(RunConfig(method=sys.argv[1], preset='branin', n_init=3, n_iter=2, seed=1,\n"
        "              mock='random', acquisition=acq,\n"
        "              gp_fit=GpFitConfig(restarts=1, maxiter=5))).write(sys.argv[2])\n"
        "assert cli.main(['report', sys.argv[2]]) == 0\n" + PRINT_KERNELS,
        method, str(tmp_path / "run.jsonl"),
    )
    mapped = list(SCIPY_KERNELS) if loaded else []
    assert out.splitlines()[-2:] == [str(mapped), str(int(loaded))]


def test_report_loads_no_openssl(tmp_path):
    log = tmp_path / "run.jsonl"
    run(RunConfig(method="llm_only", preset="amp2", n_init=3, n_iter=1, seed=0,
                  mock="random")).write(str(log))
    out = _python(
        "import sys\n"
        "from analogopt import cli\n"
        "assert cli.main(['report', sys.argv[1]]) == 0\n"
        "print('_hashlib' in sys.modules)\n",
        str(log),
    )
    assert out.endswith("\nFalse\n")


STDLIB_UNUSED = ("logging", "configparser")


def test_import_llm_only_run_and_report_skip_logging_and_configparser(tmp_path):
    out = _python(
        "import sys\n"
        "import analogopt\n"
        "from analogopt import cli\n"
        "from analogopt.config import RunConfig\n"
        "analogopt.run(RunConfig(method='llm_only', preset='amp2', n_init=3, n_iter=20,\n"
        "                        seed=0, mock='random')).write(sys.argv[1])\n"
        "assert cli.main(['report', sys.argv[1]]) == 0\n"
        "for name in sys.argv[2:]:\n"
        "    print(name, name in sys.modules)\n",
        str(tmp_path / "run.jsonl"), *STDLIB_UNUSED,
    )
    loaded = dict(line.split() for line in out.splitlines()[-len(STDLIB_UNUSED):])
    assert loaded == dict.fromkeys(STDLIB_UNUSED, "False")


def test_load_run_config_imports_configparser(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[run]\nmethod = llm_only\npreset = amp2\n", encoding="utf-8")
    out = _python(
        "import sys\n"
        "from analogopt.config import load_run_config\n"
        "assert 'configparser' not in sys.modules\n"
        "print(load_run_config(sys.argv[1]).method, 'configparser' in sys.modules)\n",
        str(ini),
    )
    assert out.split() == ["llm_only", "True"]


def test_rejected_proposal_is_logged_at_info(caplog):
    # in this session: a logger got on first use still reaches pytest's handler
    config = RunConfig(method="llm_only", preset="amp2", mock="random")
    card = build_task_card(config, build_model(config))
    client = ScriptedLlmClient(["not a design", _amp2_reply()])
    with caplog.at_level(logging.INFO, logger="analogopt.llm"):
        point, _ = propose(client, card, [], LlmConfig(retry_limit=2))
    assert point is not None
    rejected = [r for r in caplog.records if r.getMessage().startswith("proposal rejected")]
    assert [(r.name, r.levelno) for r in rejected] == [("analogopt.llm", logging.INFO)]


FIRST_CALL_SETUP = """
import pickle
import numpy as np
from analogopt import acquisition, surrogate
from analogopt.core import DesignSpace, Parameter
X = np.random.default_rng(0).uniform(size=(6, 2))
y = np.sin(6.0 * X).sum(axis=1)
ls = np.array([0.3, 0.5])
K = surrogate.rbf_kernel(X, X, ls, 1.0) + 1e-3 * np.eye(6)
L = np.linalg.cholesky(K)
model = surrogate.GpModel(X, y, ls, 1.0, 1e-3, L, np.linalg.solve(K, y), 0.0, 1.0, 0.0)
space = DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))
acq = acquisition.AcquisitionConfig(mc_samples=64, restarts=2, raw_candidates=16, maxiter=5)
"""
FIRST_CALLS = {
    "_chol_with_jitter": "surrogate._chol_with_jitter(K)",
    "_solve_lower": "surrogate._solve_lower(L, K)",
    "_factor": "surrogate._factor(y, ls, 1.0, 1e-3, surrogate._fit_invariants(X))",
    "_lml_and_grad": "surrogate._lml_and_grad(y, ls, 1.0, 1e-3, surrogate._fit_invariants(X))",
    "_lbfgsb": "surrogate._lbfgsb(lambda x: (x @ x, 2.0 * x), y, None, None, 20)",
    "log_marginal_likelihood": "surrogate.log_marginal_likelihood(X, y, ls, 1.0, 1e-3)",
    "gp_predict": "surrogate.gp_predict(model, X[:2] + 0.1)",
    "ei": "acquisition.ei(model, X[0] + 0.1, 0.5)",
    "qei_mc": "acquisition.qei_mc(model, X[:2] + 0.1, 0.5, acq, 0)",
    "propose_batch": (
        "acquisition.propose_batch(model, space, 0.5, 2, acq, np.random.default_rng(0), 0)"
    ),
}


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_kernel_users_work_as_the_first_call_of_an_interpreter(name):
    # Each function that calls a scipy kernel loads it when nothing has yet,
    # and returns the bits it returns in this session, where the kernels are
    # loaded.
    code = FIRST_CALL_SETUP + f"result = {FIRST_CALLS[name]}\n"
    namespace = {}
    exec(code, namespace)
    out = _python(code + "print(pickle.dumps(result).hex())\n")
    assert out.strip() == pickle.dumps(namespace["result"]).hex()


FIT_DATA = ([[0.1], [0.5], [0.9]], [1.0, 2.0, 0.5])


@pytest.mark.parametrize("fault", ["signature", "missing"])
def test_refused_or_missing_kernel_fails_the_first_gp_call(tmp_path, fault):
    # A kernel that cannot be used stops only what needs it: import, an LLM-only
    # run and report succeed, and the first GP call raises the loader's error.
    # The failure is not kept: once the fault is undone, the next GP call
    # loads the kernels and returns the bits it returns in this session.
    out = _python(
        "import sys\n"
        "from pathlib import Path\n"
        "import analogopt\n"
        "from analogopt import cli, surrogate\n"
        "from analogopt.config import RunConfig\n"
        f"FIT_DATA = {FIT_DATA!r}\n"
        "original = surrogate._SETULB_SIGNATURE, surrogate._SCIPY_DIR\n"
        "if sys.argv[1] == 'signature':\n"
        "    surrogate._SETULB_SIGNATURE = 'setulb(m,x,l,u,nbd,f,g)'\n"
        "else:\n"
        "    surrogate._SCIPY_DIR = Path(sys.argv[2])  # holds no extension\n"
        "analogopt.run(RunConfig(method='llm_only', preset='branin', n_init=3,\n"
        "                        n_iter=1, seed=0, mock='random')).write(sys.argv[2] + '/run.jsonl')\n"
        "assert cli.main(['report', sys.argv[2] + '/run.jsonl']) == 0\n"
        "try:\n"
        "    analogopt.gp_fit(*FIT_DATA)\n"
        "except ImportError as error:\n"
        "    print(error)\n"
        "surrogate._SETULB_SIGNATURE, surrogate._SCIPY_DIR = original\n"
        "print(analogopt.gp_fit(*FIT_DATA).log_marginal.hex())\n",
        fault, str(tmp_path),
    )
    message = {
        "signature": f"scipy {scipy_version}: L-BFGS-B kernel signature",
        "missing": f"scipy {scipy_version} has no linalg/_flapack extension",
    }[fault]
    lines = out.splitlines()
    assert lines[-2].startswith(message)
    assert lines[-1] == gp_fit(*FIT_DATA).log_marginal.hex()


def test_chat_complete_imports_requests_on_first_call(stub_server):
    server = stub_server([(200, chat_body("deferred reply"))])
    out = _python(
        "import sys\n"
        "from analogopt.llm import LlmConfig, chat_complete\n"
        "assert 'requests' not in sys.modules\n"
        "config = LlmConfig(endpoint=sys.argv[1], backoff=0.0)\n"
        "print(chat_complete(config, [{'role': 'user', 'content': 'hi'}]))\n"
        "assert 'requests' in sys.modules\n",
        server.endpoint,
    )
    assert out.strip() == "deferred reply"
    assert server.hits == 1


def test_readme_library_block_runs():
    # a README that names a deleted export fails here
    readme = (SRC.parent / "README.md").read_text("utf-8")
    block = re.search(r"^## Library\n.*?```python\n(.*?)```", readme, re.S | re.M)
    _python(block.group(1))
