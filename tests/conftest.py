"""Shared fixtures and differential-testing helpers."""

from __future__ import annotations

import signal
import threading

import pytest

from repro import XFlux, parse_xml, tokenize
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core import Context
from repro.xquery.parser import parse as parse_query

AUCTION_XML = """<site><regions><europe>
<item><location>Albania</location><quantity>5</quantity>\
<payment>Cash</payment></item>
<item><location>France</location><quantity>7</quantity>\
<payment>Credit</payment></item>
<item><location>Albania</location><quantity>2</quantity>\
<payment>Cash</payment></item>
</europe><asia>
<item><location>Albania</location><quantity>9</quantity>\
<payment>Cash</payment></item>
</asia></regions></site>"""

BIB_XML = """<dblp>
<inproceedings><author>John Smith</author><title>Paper B</title>\
<year>1999</year></inproceedings>
<inproceedings><author>Jane Doe</author><title>Paper X</title>\
<year>1997</year></inproceedings>
<inproceedings><author>Adam Smith</author><title>Paper A</title>\
<year>1995</year></inproceedings>
</dblp>"""

RECURSIVE_XML = ("<r><part>a<part>b<part>c</part></part></part>"
                 "<part>d</part><widget><part>e</part></widget></r>")


@pytest.fixture
def auction_xml():
    return AUCTION_XML


@pytest.fixture
def bib_xml():
    return BIB_XML


@pytest.fixture
def recursive_xml():
    return RECURSIVE_XML


@pytest.fixture
def ctx():
    context = Context()
    context.ids.reserve(0)
    return context


#: Wall-clock budget of one test, in seconds.  The slowest test takes a
#: few seconds, so a test still running after this long hangs: it fails
#: with a message naming the budget instead of passing slowly.
TEST_BUDGET_S = 60


@pytest.fixture(autouse=True)
def wall_clock_budget(request):
    """Fail any test that runs longer than :data:`TEST_BUDGET_S`.

    A real-time interval timer raises in the main thread when the budget
    runs out, interrupting blocking calls too (a read on a pipe whose
    writer never closes it).  Forked children do not inherit the timer.
    Skipped where the platform has no interval timers.
    """
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expire(signum, frame):
        pytest.fail("{} exceeded its {} s wall-clock budget (hung?)"
                    .format(request.node.nodeid, TEST_BUDGET_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
