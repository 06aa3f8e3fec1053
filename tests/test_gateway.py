"""Tests for the chat gateway: registry, retry policy, mock scripting."""

from __future__ import annotations

import datetime as dt
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from finorch.clock import FixedClock
from finorch.errors import (
    ConfigError,
    DuplicateBackend,
    MalformedResponse,
    Timeout,
    TransportError,
    TransportExhausted,
    TransportTimeout,
    UnknownBackend,
)
from finorch.gateway import (
    MAX_IN_FLIGHT,
    MOCK_SENTINEL,
    BackendSpec,
    ChatMessage,
    Gateway,
    HttpTransport,
    MockRule,
    MockTransport,
)
from finorch.httpclient import BACKOFF_INITIAL, HttpClient, Response

SRC = Path(__file__).resolve().parent.parent / "src"


class TopOfRangeRng:
    """uniform(a, b) -> b, making backoff delays predictable."""

    def uniform(self, a: float, b: float) -> float:
        return b


def make_gateway(**kwargs) -> tuple[Gateway, list[float]]:
    sleeps: list[float] = []
    gateway = Gateway(
        clock=FixedClock(),
        sleeper=sleeps.append,
        rng=TopOfRangeRng(),
        **kwargs,
    )
    return gateway, sleeps


def user(text: str) -> list[ChatMessage]:
    return [ChatMessage(role="user", content=text)]


# ---------------------------------------------------------------- registry


def test_register_duplicate_rejected():
    gateway, _ = make_gateway()
    gateway.script_mock("a", [MockRule(match="", reply="ok")])
    with pytest.raises(DuplicateBackend):
        gateway.script_mock("a", [MockRule(match="", reply="ok")])


def test_unknown_backend():
    gateway, _ = make_gateway()
    with pytest.raises(UnknownBackend):
        gateway.chat("ghost", user("hi"))


def test_spec_validation():
    ok = dict(backend_id="b", base_url="http://x", model_name="m")
    BackendSpec(**ok)
    with pytest.raises(ValueError):
        BackendSpec(**{**ok, "timeout": 0})
    with pytest.raises(ValueError):
        BackendSpec(**{**ok, "temperature": 2.5})
    with pytest.raises(ValueError):
        BackendSpec(**{**ok, "max_retries": -1})
    with pytest.raises(ValueError):
        BackendSpec(**{**ok, "max_tokens": 0})


def test_message_validation():
    with pytest.raises(ValueError):
        ChatMessage(role="tool", content="x")
    with pytest.raises(ValueError):
        ChatMessage(role="user", content="")
    ChatMessage(role="assistant", content="")  # assistants may be silent


# -------------------------------------------------------------- mock rules


def test_scripted_reply():
    gateway, _ = make_gateway()
    gateway.script_mock("m", [MockRule(match="forecast", reply="Up")])
    exchange = gateway.chat("m", user("please forecast"))
    assert exchange.response_text == "Up"
    assert exchange.attempt_count == 1


def test_first_match_wins():
    gateway, _ = make_gateway()
    gateway.script_mock(
        "m",
        [
            MockRule(match="forecast", reply="first"),
            MockRule(match="forecast", reply="second"),
        ],
    )
    assert gateway.chat("m", user("forecast please")).response_text == "first"


def test_no_match_yields_sentinel():
    gateway, _ = make_gateway()
    gateway.script_mock("m", [MockRule(match="forecast", reply="Up")])
    assert gateway.chat("m", user("hello")).response_text == MOCK_SENTINEL


def test_match_against_last_user_message():
    gateway, _ = make_gateway()
    gateway.script_mock("m", [MockRule(match="second", reply="matched")])
    messages = [
        ChatMessage(role="system", content="second to none"),
        ChatMessage(role="user", content="first question"),
        ChatMessage(role="assistant", content="first answer"),
        ChatMessage(role="user", content="second question"),
    ]
    assert gateway.chat("m", messages).response_text == "matched"


def test_mock_is_pure_function_of_script_and_history():
    def run() -> list[str]:
        gateway, _ = make_gateway()
        gateway.script_mock(
            "m",
            [
                MockRule(match="flaky", fail=True, times=1),
                MockRule(match="flaky", reply="recovered"),
                MockRule(match="", reply="default"),
            ],
        )
        outs = []
        for text in ("flaky call", "plain call", "flaky call"):
            outs.append(gateway.chat("m", user(text)).response_text)
        return outs

    # first flaky call burns the single scripted failure (retry recovers);
    # the second one goes straight to the recovery rule
    assert run() == run() == ["recovered", "default", "recovered"]


def test_rule_validation():
    with pytest.raises(ValueError):
        MockRule(match="x")  # neither reply nor fail
    with pytest.raises(ValueError):
        MockRule(match="x", reply="y", fail=True)
    with pytest.raises(ValueError):
        MockRule(match="x", reply="y", times=2)
    with pytest.raises(ValueError):
        MockTransport([])


# ------------------------------------------------------------ retry policy


def test_fail_twice_then_succeed():
    gateway, sleeps = make_gateway()
    gateway.script_mock(
        "m",
        [
            MockRule(match="forecast", fail=True, times=2),
            MockRule(match="forecast", reply="OK"),
        ],
        max_retries=2,
    )
    exchange = gateway.chat("m", user("forecast"))
    assert exchange.response_text == "OK"
    assert exchange.attempt_count == 3
    # full jitter, top of range: 0.5 then 1.0 seconds
    assert sleeps == [BACKOFF_INITIAL, BACKOFF_INITIAL * 2]


def test_always_fail_exhausts():
    gateway, sleeps = make_gateway()
    gateway.script_mock(
        "m", [MockRule(match="", fail=True)], max_retries=1
    )
    with pytest.raises(TransportExhausted) as exc:
        gateway.chat("m", user("anything"))
    assert "2 attempt(s)" in str(exc.value)
    assert sleeps == [BACKOFF_INITIAL]


def test_zero_retries_fails_fast():
    gateway, sleeps = make_gateway()
    gateway.script_mock("m", [MockRule(match="", fail=True)], max_retries=0)
    with pytest.raises(TransportExhausted):
        gateway.chat("m", user("x"))
    assert sleeps == []


def test_timeout_failures_surface_as_timeout():
    class TimeoutTransport:
        def send(self, spec, payload):
            raise TransportTimeout("scripted timeout")

    gateway, _ = make_gateway(transport=TimeoutTransport())
    gateway.register_backend(
        BackendSpec(
            backend_id="t", base_url="http://x", model_name="m", max_retries=1
        )
    )
    with pytest.raises(Timeout):
        gateway.chat("t", user("x"))


def test_timeout_is_a_transport_exhausted():
    assert issubclass(Timeout, TransportExhausted)


def test_malformed_response_not_retried():
    calls = []

    class BadBodyTransport:
        def send(self, spec, payload):
            calls.append(1)
            return {"choices": []}

    gateway, _ = make_gateway(transport=BadBodyTransport())
    gateway.register_backend(
        BackendSpec(
            backend_id="b", base_url="http://x", model_name="m", max_retries=3
        )
    )
    with pytest.raises(MalformedResponse):
        gateway.chat("b", user("x"))
    assert len(calls) == 1


def test_empty_messages_rejected():
    gateway, _ = make_gateway()
    gateway.script_mock("m", [MockRule(match="", reply="ok")])
    with pytest.raises(ValueError):
        gateway.chat("m", [])


def test_exchange_is_deterministic_with_fixed_clock():
    gateway, _ = make_gateway()
    gateway.script_mock("m", [MockRule(match="", reply="ok")])
    exchange = gateway.chat("m", user("hi"))
    assert exchange.latency == 1.0  # one fixed-clock tick
    assert exchange.finished_at == dt.datetime(
        2024, 1, 1, 0, 0, 1, tzinfo=dt.timezone.utc
    )


# ------------------------------------------------------------- http client


class FakeClient(HttpClient):
    """The HTTP seam: every round trip answers ``response`` (or raises it)
    and is recorded. Status and JSON handling are the real client's."""

    def __init__(self, response):
        super().__init__()
        self.response = response
        self.calls: list[dict] = []

    def send(self, method, url, body, headers, timeout):
        self.calls.append(
            {"method": method, "url": url, "body": body, "headers": headers,
             "timeout": timeout}
        )
        if isinstance(self.response, Exception):
            raise self.response
        return self.response


def fake_response(status: int, body: object) -> Response:
    return Response(status, {}, json.dumps(body).encode("utf-8"))


def spec(**overrides) -> BackendSpec:
    base = dict(
        backend_id="remote",
        base_url="https://api.example.test/v1/",
        model_name="model-x",
        api_key_env="EXAMPLE_KEY",
        timeout=7.5,
    )
    base.update(overrides)
    return BackendSpec(**base)


def ok_body(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_http_transport_request_shape(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test-123")
    client = FakeClient(fake_response(200, ok_body("hello")))
    transport = HttpTransport(client=client)
    body = transport.send(spec(), {"model": "model-x", "messages": []})
    assert body == ok_body("hello")
    (call,) = client.calls
    assert call["method"] == "POST"
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer sk-test-123"
    assert call["headers"]["Content-Type"] == "application/json"
    assert json.loads(call["body"]) == {"model": "model-x", "messages": []}
    assert call["timeout"] == 7.5


def test_http_transport_missing_credential(monkeypatch):
    monkeypatch.delenv("EXAMPLE_KEY", raising=False)
    transport = HttpTransport(client=FakeClient(fake_response(200, ok_body("x"))))
    with pytest.raises(ConfigError):
        transport.send(spec(), {})


def test_http_transport_error_statuses(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "k")
    transport = HttpTransport(client=FakeClient(fake_response(500, {"err": 1})))
    with pytest.raises(TransportError) as err:
        transport.send(spec(), {})
    assert err.value.status == 500


def test_http_transport_timeout(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "k")
    transport = HttpTransport(client=FakeClient(TimeoutError("timed out")))
    with pytest.raises(TransportTimeout):
        transport.send(spec(), {})


def test_http_transport_non_json(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "k")
    response = Response(200, {}, b"<html>")
    transport = HttpTransport(client=FakeClient(response))
    with pytest.raises(MalformedResponse):
        transport.send(spec(), {})


def test_gateway_payload_carries_model_params():
    class CapturingTransport:
        def __init__(self):
            self.payloads = []

        def send(self, spec, payload):
            self.payloads.append(payload)
            return ok_body("fine")

    capture = CapturingTransport()
    gateway, _ = make_gateway(transport=capture)
    gateway.register_backend(
        BackendSpec(
            backend_id="b",
            base_url="http://x",
            model_name="model-7b",
            temperature=0.3,
            max_tokens=256,
        )
    )
    gateway.chat("b", user("hi"))
    (payload,) = capture.payloads
    assert payload["model"] == "model-7b"
    assert payload["temperature"] == 0.3
    assert payload["max_tokens"] == 256
    assert payload["messages"] == [{"role": "user", "content": "hi"}]


# --------------------------------------------------------------- chat_many


class RecordingTransport:
    """Non-mock transport that answers each request with ``behave(text)``
    (or raises what it raises) and records threads and in-flight counts."""

    def __init__(self, behave):
        self._behave = behave
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.threads: list[threading.Thread] = []

    def send(self, spec, payload):
        text = payload["messages"][-1]["content"]
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.threads.append(threading.current_thread())
        try:
            return ok_body(self._behave(text))
        finally:
            with self._lock:
                self.in_flight -= 1


def fanout_gateway(behave) -> tuple[Gateway, RecordingTransport]:
    transport = RecordingTransport(behave)
    gateway, _ = make_gateway()
    gateway.register_backend(
        BackendSpec(
            backend_id="remote",
            base_url="http://remote.test",
            model_name="m",
            max_retries=0,
        ),
        transport=transport,
    )
    return gateway, transport


def batch(count: int) -> list[tuple[str, list[ChatMessage]]]:
    return [("remote", user(f"request {i}")) for i in range(count)]


def test_chat_many_returns_submission_order_when_later_requests_finish_first():
    count = 4
    finished = [threading.Event() for _ in range(count)]
    completion: list[int] = []

    def behave(text):
        i = int(text.split()[-1])
        if i + 1 < count:  # request i waits for request i + 1 to finish
            assert finished[i + 1].wait(timeout=5)
        completion.append(i)
        finished[i].set()
        return f"reply {i}"

    gateway, transport = fanout_gateway(behave)
    outcomes = gateway.chat_many(batch(count))
    assert completion == [3, 2, 1, 0]
    assert [o.response_text for o in outcomes] == [f"reply {i}" for i in range(count)]
    assert all(t is not threading.current_thread() for t in transport.threads)


def test_chat_many_overlaps_requests():
    barrier = threading.Barrier(5, timeout=5)

    def behave(text):
        barrier.wait()  # raises BrokenBarrierError unless 5 are in flight
        return "ok"

    gateway, transport = fanout_gateway(behave)
    outcomes = gateway.chat_many(batch(5))
    assert [o.response_text for o in outcomes] == ["ok"] * 5
    assert transport.max_in_flight == 5


def test_chat_many_caps_requests_in_flight():
    barrier = threading.Barrier(MAX_IN_FLIGHT, timeout=5)

    def behave(text):
        barrier.wait()
        return "ok"

    gateway, transport = fanout_gateway(behave)
    outcomes = gateway.chat_many(batch(3 * MAX_IN_FLIGHT))
    assert len(outcomes) == 3 * MAX_IN_FLIGHT
    assert transport.max_in_flight == MAX_IN_FLIGHT


def test_chat_many_failure_fills_its_own_slot():
    def behave(text):
        if text.endswith(" 1"):
            raise TransportError("boom")
        return text.upper()

    gateway, _ = fanout_gateway(behave)
    outcomes = gateway.chat_many(batch(3))
    assert outcomes[0].response_text == "REQUEST 0"
    assert isinstance(outcomes[1], TransportExhausted)
    assert "boom" in str(outcomes[1])
    assert outcomes[2].response_text == "REQUEST 2"


def test_chat_many_propagates_non_engine_errors():
    def behave(text):
        if text.endswith(" 2"):
            raise RuntimeError("bug")
        return "ok"

    gateway, _ = fanout_gateway(behave)
    with pytest.raises(RuntimeError, match="bug"):
        gateway.chat_many(batch(3))


def test_chat_many_returns_with_no_request_in_flight():
    finished: list[str] = []

    def behave(text):
        if text.endswith(" 0"):
            raise RuntimeError("bug")
        time.sleep(0.05)
        finished.append(text)
        return "ok"

    gateway, transport = fanout_gateway(behave)
    gateway.chat_many(batch(2 * MAX_IN_FLIGHT)[1:])
    assert transport.in_flight == 0
    finished.clear()
    with pytest.raises(RuntimeError, match="bug"):
        gateway.chat_many(batch(3))
    assert transport.in_flight == 0
    assert sorted(finished) == ["request 1", "request 2"]


def test_batches_in_a_row_reuse_at_most_the_cap_of_threads():
    gateway, transport = fanout_gateway(lambda text: "ok")
    for _ in range(10):
        gateway.chat_many(batch(2 * MAX_IN_FLIGHT))
    assert len(transport.threads) == 10 * 2 * MAX_IN_FLIGHT
    assert len(set(transport.threads)) <= MAX_IN_FLIGHT


def test_concurrent_batches_share_the_cap_of_their_backend():
    """Four batches of ``MAX_IN_FLIGHT`` to one backend not used before,
    sent from four threads at once, keep no more than ``MAX_IN_FLIGHT`` in
    flight on one set of workers: a second pool built for the backend by a
    lost race would break both counts."""

    def behave(text):
        time.sleep(0.02)  # long enough for every batch to be sent
        return "ok"

    transport = RecordingTransport(behave)
    gateway, _ = make_gateway()
    gateway.register_backend(
        BackendSpec(backend_id="shared-cap", base_url="http://shared.test",
                    model_name="m", max_retries=0),
        transport=transport,
    )
    requests = [("shared-cap", messages) for _, messages in batch(MAX_IN_FLIGHT)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = run_together(*[lambda: gateway.chat_many(requests)] * 4)
    finally:
        sys.setswitchinterval(interval)
    assert [o.response_text for o in outcomes] == ["ok"] * 4 * MAX_IN_FLIGHT
    assert transport.max_in_flight <= MAX_IN_FLIGHT
    assert len(set(transport.threads)) <= MAX_IN_FLIGHT


def test_concurrent_batches_to_two_backends_never_wait_on_each_other():
    barrier = threading.Barrier(2 * MAX_IN_FLIGHT, timeout=5)

    def behave(text):
        barrier.wait()  # broken unless both full batches are in flight
        return "ok"

    gateway, transport = fanout_gateway(behave)
    gateway.register_backend(
        BackendSpec(backend_id="other", base_url="http://other.test",
                    model_name="m", max_retries=0),
        transport=transport,
    )
    outcomes = run_together(
        lambda: gateway.chat_many(batch(MAX_IN_FLIGHT)),
        lambda: gateway.chat_many(
            [("other", messages) for _, messages in batch(MAX_IN_FLIGHT)]
        ),
    )
    assert [o.response_text for o in outcomes] == ["ok"] * 2 * MAX_IN_FLIGHT
    assert transport.max_in_flight == 2 * MAX_IN_FLIGHT


def run_together(*calls) -> list:
    """Run each call on its own thread; their results, concatenated."""
    results: list[list] = [[] for _ in calls]
    threads = [
        threading.Thread(target=lambda i=i: results[i].extend(calls[i]()))
        for i in range(len(calls))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return [outcome for result in results for outcome in result]


THREADED_BATCH = """
import sys, time
from finorch.gateway import BackendSpec, ChatMessage, Gateway

class Echo:
    def send(self, spec, payload):
        time.sleep(0.01)
        return {"choices": [{"message": {"content": "ok"}}]}

gateway = Gateway(transport=Echo())
gateway.register_backend(BackendSpec("remote", "http://remote.test", "m"))
batch = [("remote", [ChatMessage("user", f"q{i}")]) for i in range(4)]
assert [o.response_text for o in gateway.chat_many(batch)] == ["ok"] * 4
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=30,
    )


def test_a_process_that_ran_a_threaded_batch_exits_promptly():
    done = run_python(THREADED_BATCH + "print(time.time())")
    exited = time.time()
    assert done.returncode == 0, done.stderr
    assert exited - float(done.stdout) < 2.0


def test_a_forked_child_runs_threaded_batches_on_workers_of_its_own():
    code = THREADED_BATCH + """
import os
pid = os.fork()
if pid == 0:
    ok = [o.response_text for o in gateway.chat_many(batch)] == ["ok"] * 4
    os._exit(0 if ok else 1)
assert os.waitpid(pid, 0)[1] == 0
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_chat_many_runs_mock_batches_inline_in_order():
    seen: list[tuple[threading.Thread, str]] = []

    class WatchedMock(MockTransport):
        def send(self, spec, payload):
            seen.append(
                (threading.current_thread(), payload["messages"][-1]["content"])
            )
            return super().send(spec, payload)

    gateway, _ = make_gateway()
    for backend_id in ("a", "b"):
        gateway.register_backend(
            BackendSpec(backend_id=backend_id, base_url="mock://x", model_name="m"),
            transport=WatchedMock([MockRule(match="", reply=backend_id)]),
        )
    requests = [("a", user("one")), ("b", user("two")), ("a", user("three"))]
    outcomes = gateway.chat_many(requests)
    assert [o.response_text for o in outcomes] == ["a", "b", "a"]
    assert seen == [(threading.current_thread(), t) for t in ("one", "two", "three")]
    # FixedClock stamps follow submission order: two ticks per call.
    assert [o.finished_at.second for o in outcomes] == [1, 3, 5]


def test_chat_many_runs_a_single_request_inline():
    gateway, transport = fanout_gateway(lambda text: "ok")
    (outcome,) = gateway.chat_many(batch(1))
    assert outcome.response_text == "ok"
    assert transport.threads == [threading.current_thread()]
    assert gateway.chat_many([]) == []
