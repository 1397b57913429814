"""Property tests for wire sizing: ``payload_size`` and the sizes RPC
messages carry.

``payload_size`` matches the exact built-in types first and sums scalars
inside tuples and lists in place.  The oracle below is a frozen copy of
the plain ``isinstance``-chain definition it replaced, with the message
sizes the old ``RpcRequest.wire_size()``/``RpcReply.wire_size()`` methods
computed; every generated value must size the same under both.
"""

from enum import IntEnum
from typing import Any

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.simnet import Network, NetworkProfile, RpcClient, RpcError, RpcServer
from repro.simnet.rpc import RpcReply, RpcRequest
from repro.simnet.serialization import payload_size


def _oracle_size(value: Any) -> int:
    """The ``isinstance``-chain sizer, frozen as the reference."""
    if value is None:
        return 1
    if isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, str):
        return 8 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 8 + len(value)
    if isinstance(value, np.ndarray):
        return 8 + int(value.nbytes)
    if isinstance(value, np.generic):
        return 8
    if isinstance(value, dict):
        return 8 + sum(_oracle_size(k) + _oracle_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_oracle_size(v) for v in value)
    wire = getattr(value, "wire_size", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    return 32


def _oracle_message_size(message) -> int:
    """What the old ``wire_size()`` methods computed for a message."""
    if isinstance(message, RpcReply):
        return (16 + _oracle_size(message.value)
                + (_oracle_size(message.error) if message.error else 0))
    size = 16 + _oracle_size(message.method) + _oracle_size(message.args)
    size += _oracle_size(message.kwargs) if message.kwargs else 0
    if message.batch:
        size += sum(_oracle_message_size(r) for r in message.batch)
    return size


class _Color(IntEnum):
    RED = 1
    BLUE = 2


class _Name(str):
    pass


class _Row(tuple):
    pass


class _Items(list):
    pass


class _IntSized:
    def __init__(self, n):
        self.wire_size = n


class _CallableSized:
    def __init__(self, n):
        self._n = n

    def wire_size(self):
        return self._n


class _Opaque:
    pass


_hashables = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.sampled_from(list(_Color)),
)

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(),
    st.sampled_from(list(_Color)),
    st.integers(-1000, 1000).map(np.int32),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(max_size=20),
    st.text(alphabet="é✓字😀a", max_size=8),
    st.text(max_size=12).map(_Name),
    st.binary(max_size=32),
    st.binary(max_size=32).map(bytearray),
    st.binary(max_size=32).map(memoryview),
    st.builds(lambda n, dtype: np.zeros(n, dtype=dtype),
              st.integers(0, 24),
              st.sampled_from([np.uint8, np.int32, np.float32, np.float64, np.complex64])),
    st.integers(0, 1 << 20).map(_IntSized),
    st.integers(0, 1 << 20).map(_CallableSized),
    st.builds(_Opaque),
    st.sets(_hashables, max_size=4),
    st.frozensets(_hashables, max_size=4),
)

payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=4).map(_Row),
        st.lists(children, max_size=4).map(_Items),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers()), children,
                        max_size=4),
    ),
    max_leaves=24,
)


@given(payloads)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_payload_size_matches_the_isinstance_chain(value):
    assert payload_size(value) == _oracle_size(value)


@given(
    calls=st.lists(st.tuples(st.text(max_size=12), st.lists(payloads, max_size=3)),
                   min_size=1, max_size=3),
    batch=st.lists(st.tuples(st.text(max_size=12), st.lists(payloads, max_size=3),
                             st.integers(0, 1 << 16)),
                   min_size=1, max_size=3),
    kwargs=st.dictionaries(st.text(min_size=1, max_size=5), payloads, max_size=2),
    reply=payloads,
    fail=st.booleans(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_each_message_sends_the_size_of_its_payload(calls, batch, kwargs, reply, fail):
    """Requests, batches and replies (values and errors) hand
    ``Endpoint.send`` the size the old per-send sizing gave them."""
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=1e-3))
    conn = net.connect(net.add_host("fn"), net.add_host("gpu"))
    sent = []
    for endpoint in conn.endpoints:
        send = endpoint.send

        def recording_send(payload, extra_bytes=0, size=None, _send=send):
            sent.append((payload, size))
            return _send(payload, extra_bytes=extra_bytes, size=size)

        endpoint.send = recording_send

    def handler(request):
        if False:
            yield
        if fail:
            raise ValueError(f"no {request.method} é")
        return reply

    RpcServer(conn.b, handler).start()
    client = RpcClient(conn.a)

    def caller(env):
        pendings = [client.call_async(m, *args, **kwargs) for m, args in calls]
        client.send_batch([(m, tuple(args), x) for m, args, x in batch])
        for pending in pendings:
            try:
                yield from pending.wait()
            except RpcError:
                assert fail

    env.run(until=env.process(caller(env)))
    kinds = {type(m) for m, _ in sent}
    assert kinds == {RpcRequest, RpcReply}
    assert any(m.batch for m, _ in sent if isinstance(m, RpcRequest))
    assert len(sent) == 2 * len(calls) + 1
    for message, size in sent:
        assert size == payload_size(message) == _oracle_message_size(message)
