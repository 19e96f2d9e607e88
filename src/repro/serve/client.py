"""Thin client for the ``repro serve`` daemon (stdlib ``urllib`` only).

The client speaks the daemon's JSON wire format and nothing else — no
retry logic, no connection pooling; it exists so ``repro submit`` /
``repro fetch`` and scripts do not hand-roll HTTP.  Every non-success
status surfaces as a :class:`~repro.errors.ServeError` carrying the
server's error message.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..errors import ServeError

__all__ = ["ServeClient"]


class ServeClient:
    """Talk to one ``repro serve`` daemon."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        data = (
            None
            if body is None
            else json.dumps(dict(body)).encode("utf-8")
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else self.timeout
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                payload = json.loads(exc.read().decode("utf-8"))
                detail = str(payload.get("error", ""))
            except (ValueError, OSError):
                pass
            raise ServeError(
                f"{method} {path} failed with HTTP {exc.code}"
                + (f": {detail}" if detail else "")
            ) from exc
        except urllib.error.URLError as exc:
            raise ServeError(
                f"could not reach {self.base_url}: {exc.reason}"
            ) from exc
        except (http.client.HTTPException, OSError) as exc:
            # the connection broke after the request went out, as when the
            # daemon dies while it holds a ``?wait=`` request
            raise ServeError(
                f"{method} {path} got no answer from {self.base_url}: {exc}"
            ) from exc

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        _status, data = self._request(method, path, body)
        return json.loads(data.decode("utf-8"))

    # -- API -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics``: the Prometheus text exposition."""
        _status, data = self._request("GET", "/metrics")
        return data.decode("utf-8")

    def submit(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """``POST /runs``: returns the cached/accepted/coalesced response."""
        return self._json("POST", "/runs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /runs/{id}``."""
        return self._json("GET", f"/runs/{job_id}")

    def result_bytes(self, spec_hash: str) -> bytes:
        """``GET /results/{hash}``: the stored document bytes, verbatim."""
        _status, data = self._request("GET", f"/results/{spec_hash}")
        return data

    def result(self, spec_hash: str) -> Dict[str, Any]:
        """The stored result document, parsed."""
        return json.loads(self.result_bytes(spec_hash).decode("utf-8"))

    def progress(
        self, job_id: str, *, follow: bool = False, timeout: float = 30.0
    ) -> Iterator[Dict[str, Any]]:
        """``GET /runs/{id}/progress``: journal records as they exist.

        With ``follow=True`` the server holds the connection open and
        streams new records until the job settles.
        """
        query = f"?follow={'1' if follow else '0'}&timeout={timeout:g}"
        _status, data = self._request(
            "GET",
            f"/runs/{job_id}/progress{query}",
            timeout=timeout + self.timeout if follow else None,
        )
        for line in data.decode("utf-8").splitlines():
            if line.strip():
                yield json.loads(line)

    def wait(
        self, job_id: str, *, timeout: float = 120.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Block until the job settles; returns the final status payload.

        Each status request (``GET /runs/{id}?wait=``) asks the daemon
        to hold it up to ``poll`` seconds, so the answer comes as the
        job settles.  ``poll`` is the longest one request is held
        before the client asks again; after an unsettled answer that
        came sooner, the client sleeps out the rest of ``poll``.

        Raises :class:`ServeError` on job failure or timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            _code, data = self._request(
                "GET",
                f"/runs/{job_id}?wait={poll:g}",
                timeout=poll + self.timeout,
            )
            status = json.loads(data.decode("utf-8"))
            if status.get("status") == "done":
                return status
            if status.get("status") == "failed":
                raise ServeError(
                    f"job {job_id} failed: {status.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {status.get('status')!r} after "
                    f"{timeout:g}s"
                )
            time.sleep(max(0.0, asked + poll - time.monotonic()))

    def submit_and_wait(
        self, payload: Mapping[str, Any], *, timeout: float = 120.0
    ) -> Dict[str, Any]:
        """Submit and block until a result document is available.

        Returns ``{"status", "spec_hash", "result", ...}`` whether the
        answer came from the cache or a fresh simulation.
        """
        response = self.submit(payload)
        if response.get("status") == "cached":
            return response
        job = response.get("job") or {}
        final = self.wait(job.get("id"), timeout=timeout)
        return {
            "status": response.get("status"),
            "spec_hash": response.get("spec_hash"),
            "job": final,
            "result": final.get("result"),
        }
