"""Iteration-level decode scheduling on the API server (LLM serving).

One :class:`DecodeEngine` lives inside an API server's function session
(created by ``llmConfigure``).  It owns the serving-side half of the LLM
workload:

* **continuous batching** — between decode iterations, waiting sequences
  join the active batch (up to ``max_batch``) and finished ones leave;
  ``mode="request"`` is the ablation baseline, which only forms a new
  batch once the previous one has fully drained (no mid-flight joins),
* **KV-cache paging** — each sequence's cache grows page by page as real
  allocations in the API server's memory context
  (:meth:`~repro.simcuda.context.CudaContext.malloc`, exempt from the
  function's *declared* limit) charged through the monitor's ledger via
  :meth:`~repro.core.monitor.Monitor.charge_extra`, so cache pressure is
  visible to feasibility checks, imbalance detection, migration
  targeting, the GPU-memory SLO rule, and the invariant auditor,
* **eviction / recompute** — when the ledger denies a page, the engine
  preempts the most-recently-admitted other sequence (LIFO, as in
  paged-attention engines): its pages are freed and uncharged, and it
  re-queues keeping its generated count — re-admission pays prefill over
  prompt + generated tokens (recompute).  A lone sequence that must grow
  force-charges instead (the progress guarantee): ``committed`` may then
  exceed capacity, blocking new grants on the device until pages free.

Iteration cost is ``decode_base_s + decode_s_per_seq * len(active)`` —
sublinear per sequence, which is what makes batching pay.  Everything is
driven by ``llmStep`` RPCs from the guest, so execution serializes with
migration at API-call boundaries like every other remoted call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.simcuda.errors import CudaError, cudaError

__all__ = ["DecodeEngine", "SequenceState", "DECODE_MODES"]

DECODE_MODES = ("continuous", "request")


@dataclass
class SequenceState:
    """One request's decode state inside the engine."""

    req_id: int
    prompt_tokens: int
    output_tokens: int
    #: tokens emitted so far — survives eviction (recompute re-prefills
    #: prompt + generated, it does not re-emit)
    generated: int = 0
    #: guest VAs of the KV pages currently allocated for this sequence
    page_vas: list[int] = field(default_factory=list)

    @property
    def kv_tokens(self) -> int:
        """Context tokens the cache must cover to decode the next token."""
        return self.prompt_tokens + self.generated + 1


class DecodeEngine:
    """Decode-step scheduler + KV-cache pager for one function session."""

    def __init__(self, server, *, kv_bytes_per_token: int, kv_page_tokens: int,
                 prefill_s_per_token: float, decode_base_s: float,
                 decode_s_per_seq: float, max_batch: int,
                 mode: str = "continuous", batch_cap: int = 0):
        if mode not in DECODE_MODES:
            raise CudaError(
                cudaError.cudaErrorInvalidValue, f"unknown decode mode {mode!r}"
            )
        if kv_bytes_per_token <= 0 or kv_page_tokens <= 0 or max_batch <= 0:
            raise CudaError(
                cudaError.cudaErrorInvalidValue, "invalid decode engine shape"
            )
        self.server = server
        self.kv_bytes_per_token = int(kv_bytes_per_token)
        self.kv_page_tokens = int(kv_page_tokens)
        self.page_bytes = self.kv_bytes_per_token * self.kv_page_tokens
        self.prefill_s_per_token = float(prefill_s_per_token)
        self.decode_base_s = float(decode_base_s)
        self.decode_s_per_seq = float(decode_s_per_seq)
        #: deployment-level cap (``DgsfConfig.llm_max_decode_batch``) wins
        #: over whatever the guest asked for
        self.max_batch = min(int(max_batch), int(batch_cap)) if batch_cap else int(max_batch)
        self.mode = mode
        self.waiting: deque[SequenceState] = deque()
        self.active: list[SequenceState] = []
        self.n_iterations = 0
        self.n_prefills = 0
        self.n_recomputes = 0
        self.n_preemptions = 0
        self.n_kv_denials = 0
        self.n_kv_forced = 0
        self.kv_pages = 0
        self.kv_pages_peak = 0
        metrics = getattr(server.gpu_server, "metrics", None)
        self._ctr_iters = self._ctr_preempt = self._ctr_denials = None
        if metrics is not None:
            self._ctr_iters = metrics.counter("llm.iterations", mode=mode)
            self._ctr_preempt = metrics.counter("llm.preemptions", mode=mode)
            self._ctr_denials = metrics.counter("llm.kv_denials", mode=mode)

    @property
    def _monitor(self):
        return getattr(self.server.gpu_server, "monitor", None)

    # -- intake ------------------------------------------------------------------
    def submit(self, req_id: int, prompt_tokens: int, output_tokens: int) -> None:
        if prompt_tokens <= 0 or output_tokens <= 0:
            raise CudaError(
                cudaError.cudaErrorInvalidValue,
                f"request {req_id}: token counts must be positive",
            )
        self.waiting.append(SequenceState(
            req_id=int(req_id),
            prompt_tokens=int(prompt_tokens),
            output_tokens=int(output_tokens),
        ))

    # -- the decode loop -----------------------------------------------------------
    def step(self) -> Generator:
        """One engine iteration: admit, decode, emit.

        Returns ``[(req_id, token_number, done), ...]`` — one token per
        active sequence.  Guaranteed to make progress whenever sequences
        are waiting or active (the guest loops on it).
        """
        env = self.server.env
        emissions: list[tuple[int, int, bool]] = []
        # --- admission between iterations ---
        quota = self.max_batch - len(self.active)
        if self.mode == "request" and self.active:
            quota = 0  # request-level batching: no mid-flight joins
        while quota > 0 and self.waiting:
            seq = self.waiting[0]
            # Admission never evicts (evicting an active sequence to admit
            # a waiting one would thrash A<->B); a first sequence on an
            # otherwise-empty engine force-charges so serving always
            # starts even when a co-resident engine owns the headroom.
            ok = yield from self._ensure_pages(
                seq, evict_ok=False, force_ok=not self.active
            )
            if not ok:
                break
            self.waiting.popleft()
            self.active.append(seq)
            quota -= 1
            self.n_prefills += 1
            if seq.generated:
                self.n_recomputes += 1  # eviction recovery: re-prefill
            yield env.timeout(
                self.prefill_s_per_token * (seq.prompt_tokens + seq.generated)
            )
        if not self.active:
            return emissions
        # --- one batched decode iteration ---
        yield env.timeout(self.decode_base_s + self.decode_s_per_seq * len(self.active))
        self.n_iterations += 1
        if self._ctr_iters is not None:
            self._ctr_iters.inc()
        for seq in list(self.active):
            if seq not in self.active:
                continue  # evicted by an earlier sequence's cache growth
            yield from self._ensure_pages(seq, evict_ok=True, force_ok=True)
            seq.generated += 1
            done = seq.generated >= seq.output_tokens
            emissions.append((seq.req_id, seq.generated, done))
            if done:
                self.active.remove(seq)
                yield from self._release_pages(seq)
        return emissions

    def stats(self) -> dict:
        return {
            "n_iterations": self.n_iterations,
            "n_prefills": self.n_prefills,
            "n_recomputes": self.n_recomputes,
            "n_preemptions": self.n_preemptions,
            "n_kv_denials": self.n_kv_denials,
            "n_kv_forced": self.n_kv_forced,
            "kv_pages_peak": self.kv_pages_peak,
        }

    # -- KV paging ---------------------------------------------------------------
    def _ensure_pages(self, seq: SequenceState, *, evict_ok: bool,
                      force_ok: bool) -> Generator:
        """Grow ``seq``'s cache to cover its context; True on success."""
        target = -(-seq.kv_tokens // self.kv_page_tokens)
        while len(seq.page_vas) < target:
            ok = yield from self._acquire_page(seq, evict_ok=evict_ok,
                                               force_ok=force_ok)
            if not ok:
                return False
        return True

    def _acquire_page(self, seq: SequenceState, *, evict_ok: bool,
                      force_ok: bool) -> Generator:
        monitor = self._monitor
        if monitor is not None:
            charged = monitor.charge_extra(self.server, self.page_bytes)
            if not charged:
                self.n_kv_denials += 1
                if self._ctr_denials is not None:
                    self._ctr_denials.inc()
            while not charged and evict_ok:
                victim = self._pick_victim(seq)
                if victim is None:
                    break
                yield from self._evict(victim)
                charged = monitor.charge_extra(self.server, self.page_bytes)
            if not charged:
                if not force_ok:
                    return False
                monitor.charge_extra(self.server, self.page_bytes, force=True)
                self.n_kv_forced += 1
        va = yield from self.server._alloc_va(self.page_bytes)
        seq.page_vas.append(va)
        self.kv_pages += 1
        self.kv_pages_peak = max(self.kv_pages_peak, self.kv_pages)
        return True

    def _pick_victim(self, needy: SequenceState) -> Optional[SequenceState]:
        """LIFO preemption: the most recently admitted other sequence."""
        for candidate in reversed(self.active):
            if candidate is not needy:
                return candidate
        return None

    def _evict(self, victim: SequenceState) -> Generator:
        self.active.remove(victim)
        yield from self._release_pages(victim)
        # back to the head of the waiting line, generated count kept:
        # re-admission pays recompute prefill instead of re-emitting
        self.waiting.appendleft(victim)
        self.n_preemptions += 1
        if self._ctr_preempt is not None:
            self._ctr_preempt.inc()

    def _release_pages(self, seq: SequenceState) -> Generator:
        if not seq.page_vas:
            return
        monitor = self._monitor
        if monitor is not None:
            monitor.uncharge_extra(self.server, self.page_bytes * len(seq.page_vas))
        self.kv_pages -= len(seq.page_vas)
        for va in seq.page_vas:
            yield from self.server._free_va(va)
        seq.page_vas = []

    def __repr__(self) -> str:
        return (
            f"<DecodeEngine mode={self.mode} active={len(self.active)} "
            f"waiting={len(self.waiting)} pages={self.kv_pages}>"
        )
