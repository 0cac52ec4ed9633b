"""HTTP message model and 379 validation."""

from repro.protocols import (
    HttpRequest,
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_PARTIAL_POST_REPLAY,
    is_valid_ppr_response,
)
from repro.run import RunRecord


def test_request_ids_unique():
    """Unique within one run; the next run counts from 1 again."""
    run = RunRecord()
    a = HttpRequest("GET", "/", id=next(run.request_ids))
    b = HttpRequest("GET", "/", id=next(run.request_ids))
    assert (a.id, b.id) == (1, 2)
    assert next(RunRecord().request_ids) == 1


def test_clone_for_replay_keeps_identity():
    original = HttpRequest("POST", "/upload", body_size=1000, user_id=5,
                           id=7)
    clone = original.clone_for_replay()
    assert clone.id == original.id
    assert clone.body_size == 1000
    assert clone is not original
    clone.headers["x"] = "y"
    assert "x" not in original.headers


def test_ppr_response_strict_validation():
    good = HttpResponse(STATUS_PARTIAL_POST_REPLAY, request_id=1,
                        status_message=PARTIAL_POST_STATUS_MESSAGE)
    assert is_valid_ppr_response(good)
    # A bare 379 without the magic status message must NOT be trusted
    # (the §5.2 memory-corruption incident).
    rogue = HttpResponse(STATUS_PARTIAL_POST_REPLAY, request_id=1,
                         status_message="Weird Upstream")
    assert not is_valid_ppr_response(rogue)
    boring = HttpResponse(200, request_id=1,
                          status_message=PARTIAL_POST_STATUS_MESSAGE)
    assert not is_valid_ppr_response(boring)
