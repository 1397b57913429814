"""LLM serving sessions: autoregressive decode over the DGSF facade.

The six paper workloads are one-shot inference; modern serverless-GPU
traffic is autoregressive LLM serving, whose per-token decode loops and
growing KV caches stress exactly the layers DGSF disaggregates (ROADMAP
item 3).  Revati (arXiv:2601.00397) shows GPU-free time-warp emulation
reproduces LLM serving dynamics faithfully — our sim-time substrate is
that — so the session here models the *call stream* an LLM engine makes
through the guest library:

* ``load()`` uploads the weights like any model (one allocation, chunked
  H2D copies), then configures a server-side decode engine
  (:class:`repro.core.decode.DecodeEngine`) via ``llmConfigure``,
* ``serve()`` submits chat requests as they arrive and drives the decode
  loop one ``llmStep`` RPC per iteration — the engine admits/evicts
  sequences between iterations (continuous batching) and returns the
  tokens emitted, which the session timestamps on receipt: time-to-first-
  token and inter-token latency are measured where a client would see
  them, after the reply network hop,
* every emitted token becomes a trace instant on the invocation's span
  (token streaming), and per-token latencies/counters go to the metrics
  registry labeled by workload and batching mode.

KV-cache memory is *not* modeled here: the server-side engine allocates
real simulated device pages and charges them through the monitor's
ledger, so cache pressure interacts with feasibility, imbalance
detection, migration, and the GPU-memory SLO rule.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = ["LlmModelSpec", "ChatRequest", "make_chat_trace", "LlmSession"]


@dataclass(frozen=True)
class LlmModelSpec:
    """Cost/shape parameters of one served LLM."""

    name: str
    #: parameter bytes uploaded at load (one allocation, chunked copies)
    weight_bytes: int
    #: KV-cache bytes appended per token of context (all layers)
    kv_bytes_per_token: int
    #: tokens per KV page — pages are the allocation granularity, as in
    #: paged-attention engines; growth allocates page by page
    kv_page_tokens: int = 64
    #: prefill cost per prompt token (recompute pays this again)
    prefill_s_per_token: float = 2e-4
    #: fixed cost of one decode iteration (kernel launches, sampling)
    decode_base_s: float = 8e-3
    #: marginal cost per active sequence in an iteration — deliberately
    #: sublinear per sequence, which is why batching wins
    decode_s_per_seq: float = 2e-3
    #: engine-side bound on concurrently decoding sequences
    max_batch: int = 8

    def __post_init__(self):
        if self.weight_bytes <= 0:
            raise ConfigurationError("weight_bytes must be positive")
        if self.kv_bytes_per_token <= 0:
            raise ConfigurationError("kv_bytes_per_token must be positive")
        if self.kv_page_tokens <= 0:
            raise ConfigurationError("kv_page_tokens must be positive")
        if self.prefill_s_per_token < 0:
            raise ConfigurationError("prefill_s_per_token must be non-negative")
        if self.decode_base_s <= 0:
            raise ConfigurationError("decode_base_s must be positive")
        if self.decode_s_per_seq < 0:
            raise ConfigurationError("decode_s_per_seq must be non-negative")
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")


@dataclass(frozen=True)
class ChatRequest:
    """One chat turn in a workload trace."""

    req_id: int
    #: arrival offset from the start of serving (seconds)
    arrival_offset_s: float
    prompt_tokens: int
    output_tokens: int


def make_chat_trace(
    n_requests: int,
    mean_gap_s: float,
    prompt_mean_tokens: int,
    output_mean_tokens: int,
    seed: int,
    long_context_frac: float = 0.0,
    long_prompt_tokens: int = 0,
) -> list[ChatRequest]:
    """A deterministic chat-arrival trace.

    Seeded by the workload's fixed ``trace_seed`` — never by invocation
    id, which depends on launch order — so every invocation of a
    workload replays the identical trace and token counts are
    seed-stable (the determinism golden).  Prompt/output lengths are
    exponential with a floor; a ``long_context_frac`` fraction of prompts
    is replaced by ``long_prompt_tokens`` outliers.
    """
    if n_requests <= 0:
        raise ConfigurationError("n_requests must be positive")
    if mean_gap_s < 0:
        raise ConfigurationError("mean_gap_s must be non-negative")
    if not 0.0 <= long_context_frac <= 1.0:
        raise ConfigurationError("long_context_frac must be in [0, 1]")
    if long_context_frac > 0 and long_prompt_tokens <= 0:
        raise ConfigurationError(
            "long_prompt_tokens must be positive when outliers are enabled"
        )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap_s, size=n_requests) if mean_gap_s else np.zeros(n_requests)
    arrivals = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    prompts = np.maximum(4, rng.exponential(prompt_mean_tokens, size=n_requests).astype(int))
    outputs = np.maximum(4, rng.exponential(output_mean_tokens, size=n_requests).astype(int))
    long_draw = rng.random(n_requests)
    requests = []
    for i in range(n_requests):
        prompt = int(prompts[i])
        if long_context_frac > 0 and long_draw[i] < long_context_frac:
            prompt = int(long_prompt_tokens)
        requests.append(ChatRequest(
            req_id=i,
            arrival_offset_s=float(arrivals[i]),
            prompt_tokens=prompt,
            output_tokens=int(outputs[i]),
        ))
    return requests


class LlmSession:
    """An LLM engine bound to one GPU session facade."""

    def __init__(self, env, gpu, spec: LlmModelSpec, metrics=None,
                 workload: str = "llm", span=None):
        self.env = env
        self.gpu = gpu
        self.spec = spec
        self.metrics = metrics
        self.workload = workload
        self.span = span
        self._weights_ptr: Optional[int] = None
        self._loaded = False
        #: CRC32 over the emission stream ``(req, token, t)`` — the
        #: bit-identical determinism digest for a served trace
        self.emission_crc = 0
        self.tokens_emitted = 0

    # -- model loading ------------------------------------------------------------
    def load(self, mode: str = "continuous") -> Generator:
        """Upload weights, then configure the server-side decode engine."""
        gpu, spec = self.gpu, self.spec
        count = yield from gpu.cudaGetDeviceCount()
        for d in range(count):
            yield from gpu.cudaGetDeviceProperties(d)
        yield from gpu.cudaSetDevice(0)
        ptr = yield from gpu.cudaMalloc(spec.weight_bytes)
        self._weights_ptr = ptr
        chunk = max(1, spec.weight_bytes // 16)
        uploaded = 0
        while uploaded < spec.weight_bytes:
            size = min(chunk, spec.weight_bytes - uploaded)
            yield from gpu.memcpyH2D(ptr + uploaded, size, sync=False)
            uploaded += size
        yield from gpu.cudaDeviceSynchronize()
        yield from gpu.llmConfigure(
            kv_bytes_per_token=spec.kv_bytes_per_token,
            kv_page_tokens=spec.kv_page_tokens,
            prefill_s_per_token=spec.prefill_s_per_token,
            decode_base_s=spec.decode_base_s,
            decode_s_per_seq=spec.decode_s_per_seq,
            max_batch=spec.max_batch,
            mode=mode,
        )
        self._loaded = True

    # -- serving ---------------------------------------------------------------------
    def serve(self, requests: list[ChatRequest], mode: str = "continuous") -> Generator:
        """Drive the decode loop over a chat trace; returns a summary.

        Requests are submitted at their arrival offsets; between arrivals
        the session repeatedly calls ``llmStep`` — one RPC per decode
        iteration — and timestamps the returned token emissions.
        """
        if not self._loaded:
            raise SimulationError("LLM session not loaded")
        env, gpu = self.env, self.gpu
        ordered = sorted(requests, key=lambda r: (r.arrival_offset_s, r.req_id))
        t0 = env.now
        arrive: dict[int, float] = {}
        last_t: dict[int, float] = {}
        finish: dict[int, float] = {}
        inflight: set[int] = set()
        next_idx = 0
        hist_token = hist_ttft = ctr_tokens = None
        if self.metrics is not None:
            labels = {"workload": self.workload, "mode": mode}
            hist_token = self.metrics.histogram("llm.token_latency_s", **labels)
            hist_ttft = self.metrics.histogram("llm.ttft_s", **labels)
            ctr_tokens = self.metrics.counter("llm.tokens", **labels)
        # exemplar link: latency observations carry the serving trace id
        # so an SLO alert (or a histogram bucket) can name the trace
        trace_id = self.span.trace_id if self.span is not None else None
        while next_idx < len(ordered) or inflight:
            # submit every request that has arrived by now
            while (next_idx < len(ordered)
                   and ordered[next_idx].arrival_offset_s <= env.now - t0 + 1e-12):
                req = ordered[next_idx]
                yield from gpu.llmSubmit(
                    req.req_id, req.prompt_tokens, req.output_tokens
                )
                arrive[req.req_id] = env.now
                inflight.add(req.req_id)
                next_idx += 1
            if not inflight:
                # idle until the next arrival — nothing is decoding
                yield env.timeout(t0 + ordered[next_idx].arrival_offset_s - env.now)
                continue
            emissions = yield from gpu.llmStep()
            t = env.now
            if not emissions:
                raise SimulationError(
                    "llmStep made no progress with sequences in flight"
                )
            for req_id, token_n, done in emissions:
                prev = last_t.get(req_id, arrive[req_id])
                if hist_token is not None:
                    hist_token.observe(t - prev, trace_id=trace_id)
                    if token_n == 1:
                        hist_ttft.observe(t - arrive[req_id], trace_id=trace_id)
                last_t[req_id] = t
                self.tokens_emitted += 1
                self.emission_crc = zlib.crc32(
                    struct.pack("<qqd", req_id, token_n, t), self.emission_crc
                )
                if self.span is not None:
                    self.span.instant("llm_token", req=req_id, n=token_n, done=done)
                if done:
                    finish[req_id] = t
                    inflight.discard(req_id)
            if ctr_tokens is not None:
                ctr_tokens.inc(len(emissions))
        stats = yield from gpu.llmStats()
        return {
            "n_requests": len(ordered),
            "n_tokens": self.tokens_emitted,
            "emission_crc": self.emission_crc,
            "last_finish_s": round(max(finish.values()) - t0, 9) if finish else 0.0,
            **stats,
        }

    # -- teardown ---------------------------------------------------------------------
    def close(self) -> Generator:
        if self._weights_ptr is not None:
            yield from self.gpu.cudaFree(self._weights_ptr)
            self._weights_ptr = None
        self._loaded = False
