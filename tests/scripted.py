"""Register an in-process scripted backend on a gateway, for tests."""

from __future__ import annotations

from typing import Any

from finorch.gateway import BackendSpec, Gateway, MockTransport


def script_backend(
    gateway: Gateway, backend_id: str, script: list[dict], **fields: Any
) -> BackendSpec:
    """Register ``backend_id``, answered by a ``MockTransport`` running
    ``script``, and return its spec; ``fields`` sets other ``BackendSpec``
    fields (``max_retries``, ``timeout``, ...)."""
    spec = BackendSpec(backend_id, f"mock://{backend_id}", "mock-model", **fields)
    gateway.register_backend(spec, MockTransport(script))
    return spec
