import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# One BLAS thread, set before numpy loads OpenBLAS: on a shared host, spare
# BLAS threads contend with other processes and slow the GP tests severalfold.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from analogopt.core import (
    Dataset,
    DesignPoint,
    DesignSpace,
    EvalRecord,
    Parameter,
    Source,
    dataset_append,
)
from analogopt.surrogate import GpModel


def make_record(fom, iteration=0, source=Source.RANDOM, point=(0.5,), metrics=None):
    return EvalRecord(
        point=DesignPoint(tuple(point)),
        metrics=metrics or {"objective": fom},
        regions={},
        simulation_ok=True,
        fom=fom,
        source=source,
        iteration=iteration,
    )


def make_dataset(foms):
    dataset = Dataset()
    for f in foms:
        dataset_append(dataset, make_record(f))
    return dataset


@pytest.fixture
def unit_space():
    return DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))


def model_with_prior(mu, sigma):
    """A GP whose posterior far from its single training point is N(mu, sigma^2)."""
    sv = max(sigma**2, 1e-30)
    nv = 1e-12
    return GpModel(
        train_inputs=np.array([[1000.0]]),
        train_targets=np.array([0.0]),
        lengthscales=np.array([1.0]),
        signal_variance=sv,
        noise_variance=nv,
        chol=np.array([[np.sqrt(sv + nv)]]),
        alpha=np.array([0.0]),
        target_mean=mu,
        target_std=1.0,
        log_marginal=0.0,
    )


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        self.server.headers.append(dict(self.headers))
        status, body = self.server.script[min(self.server.hits, len(self.server.script) - 1)]
        self.server.hits += 1
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class StubServer:
    """Minimal chat-completions endpoint replaying (status, body) pairs; it
    records each request's headers, in order."""

    def __init__(self, script):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = script
        self.server.hits = 0
        self.server.headers = []
        # close() waits up to one poll interval for serve_forever to notice
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1"

    @property
    def hits(self):
        return self.server.hits

    @property
    def headers(self):
        return self.server.headers

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def _make(script):
        server = StubServer(script)
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.close()


def chat_body(content):
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})


def expand(path):
    """A written run log's lines with every transcript's prompt put back in
    front of its messages and the prompt lines left out; asserts that prompt
    ids count up from 0."""
    prompts, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for text in handle:
            line = json.loads(text)
            if line["type"] == "prompt":
                assert line["id"] == len(prompts)
                prompts.append(line["messages"])
                continue
            if "llm_transcripts" in line:
                line["llm_transcripts"] = [
                    prompts[entry["prompt"]] + entry["messages"]
                    for entry in line["llm_transcripts"]
                ]
            lines.append(line)
    return lines


def expanded_text(path):
    """A written run log as logs were written before prompt lines: expanded,
    each line encoded as ``json.dumps(line, sort_keys=True)``."""
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in expand(path))


def _amp2_reply(w1="2.5 um", cc="3 pF", rz="4.7 kohm", drop=None, l1="500 nm"):
    lines = [
        f"w1 = {w1}", f"l1 = {l1}", "w3 = 1 um", "l3 = 0.2 um", "w5 = 3 um",
        "l5 = 0.3 um", "w6 = 10 um", "l6 = 200 nm", "w7 = 5 um", "l7 = 0.5 um",
        "wb = 1 um", "lb = 0.4 um", f"rz = {rz}", f"cc = {cc}",
    ]
    body = "\n".join(line for line in lines if not line.startswith(f"{drop} "))
    return f"```\n{body}\n```"


# Cycled by the scripted client in an amp2 ado_llm run of 5 + 5x4: 8 replies
# fill the five initial points, the first iteration's proposal exhausts its
# three attempts, and the cycle then restarts inside the later iterations'
# proposals.
RETRY_SCRIPT = [
    # two blocks and junk: the first block parses, the second does not
    "Here is a first candidate.\n" + _amp2_reply()
    + "\nand a second one:\n```\nTODO: pick sizes\n```\nThat is all.",
    _amp2_reply(w1="4 um", drop="cc"),  # missing parameter
    _amp2_reply(w1="6 um", cc="2.2 pF"),
    _amp2_reply(w1="8 um", rz="large kohm"),  # not numeric
    _amp2_reply(w1="8 um", cc="1.5 pF"),
    _amp2_reply(w1="60 nm"),  # out of range
    _amp2_reply(w1="12 um", cc="4 pF"),
    _amp2_reply(w1="1.5 um", cc="0.8 pF"),
    "I cannot help with that.",
    _amp2_reply(w1="many um"),
    _amp2_reply(cc="1 nF"),
    _amp2_reply(w1="20 um", cc="5 pF", rz="800 ohm"),
]
