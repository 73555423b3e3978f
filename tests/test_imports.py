"""Import hygiene: a run loads only the modules it executes.

Each check runs in a fresh interpreter, so modules this test session already
imported cannot hide a regression.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import chat_body

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PACKAGES = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.stats")


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
        "from analogopt import acquisition, surrogate\n"
        "scipy_packages()\n"
        "import scipy.linalg.lapack, scipy.special\n"
        "from scipy.optimize._lbfgsb import setulb\n"
        "print(sorted({'_lbfgsb', '_flapack', '_special_ufuncs'} & set(sys.modules)))\n"
        "print(scipy.special.expit is acquisition.expit,\n"
        "      scipy.linalg.lapack.dpotrf is surrogate.dpotrf,\n"
        "      setulb is surrogate._setulb,\n"
        "      scipy.optimize._lbfgsb.setulb is surrogate._setulb,\n"
        "      scipy.linalg._flapack.dpotrf is surrogate.dpotrf,\n"
        "      scipy.special._special_ufuncs.expit is acquisition.expit)\n",
        first,
    )
    assert out.splitlines() == ["[]", "True True True True True True"]

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
