"""repro-lint's exact output over a fixed corpus, pinned line for line.

The corpus has at least one firing case for every rule (RL000-RL006,
RL009, RL100) plus the import shapes the rules resolve through: a relative
import of a module named ``time`` inside ``repro.core`` (which must never
alias the stdlib), an aliased ``import numpy.random as npr`` and a
seedless ``default_rng()``.  The library entry point and the CLI must
render the same list.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources, main

CORPUS = {
    "src/repro/core/broken.py": """
        def broken(:
            pass
    """,
    "src/repro/core/entropy.py": """
        import random
        import time
        from datetime import datetime
        from time import perf_counter as pc

        import numpy as np
        import numpy.random as npr

        def stamps():
            return time.time(), pc(), datetime.now()

        def draws(seed):
            a = random.randint(0, 3)
            b = np.random.rand(4)
            c = npr.rand(2)
            d = npr.default_rng()
            e = np.random.default_rng()
            f = npr.default_rng(seed)
            g = np.random.default_rng(seed)
            return a, b, c, d, e, f, g
    """,
    "src/repro/core/relative.py": """
        from .time import monotonic
        from . import random

        def tick(clock):
            clock.charge("cpu", monotonic())
            return random.random()
    """,
    "src/repro/core/keys.py": """
        import numpy as np

        def bounds(key_space, n):
            return np.linspace(0, key_space, n + 1)

        def page_of(lpn, n):
            return lpn / n
    """,
    "src/repro/core/handlers.py": """
        def swallow():
            try:
                work()
            except:
                pass

        def remount_here():
            try:
                work()
            except (FlashError, device.PowerLossError):
                remount()
    """,
    "src/repro/engine/hostio.py": """
        import os
        import shutil

        import numpy as np

        def spill(path):
            with open(path) as fh:
                data = fh.read()
            os.unlink(path)
            np.save(path, np.zeros(3))
            shutil.rmtree(path)
            return data
    """,
    "src/repro/flash/example.py": """
        class FlashDevice:
            def peek(self, block, page):
                return self._data[(block, page)]

        def helper(device, block, page):
            return device._read_silent(block, page)

        def fail():
            raise RuntimeError("oops")
    """,
    "src/repro/core/order.py": """
        import os
        from concurrent.futures import as_completed

        def names(d):
            return os.listdir(d)

        def merge(futures, clock):
            for fut in as_completed(futures):
                clock.charge("cpu", fut.result())
    """,
    "src/repro/core/suppressed.py": """
        import time

        def used():
            return time.time()  # repro-lint: disable=RL001

        def stale():
            return 1  # repro-lint: disable=RL001

        def stale_all():
            return 2  # repro-lint: disable=all

        def escaped():
            return 3  # repro-lint: disable=RL001,RL100
    """,
    "tests/test_example.py": """
        import time

        def test_swallow():
            time.sleep(0)
            try:
                work()
            except BaseException:
                pass
    """,
}

EXPECTED = [
    'src/repro/core/broken.py:1:12: RL000 syntax error: invalid syntax',
    'src/repro/core/entropy.py:10:11: RL001 wall-clock read time.time() — use SimClock',
    'src/repro/core/entropy.py:10:24: RL001 wall-clock read time.perf_counter() — use SimClock',
    'src/repro/core/entropy.py:10:30: RL001 wall-clock read datetime now() — use SimClock',
    'src/repro/core/entropy.py:13:8: RL001 stdlib random.randint() draws unseeded host entropy — use numpy.random.default_rng(seed)',
    'src/repro/core/entropy.py:14:8: RL001 legacy numpy.random.rand() uses the unseeded global state — use default_rng(seed)',
    'src/repro/core/entropy.py:15:8: RL001 legacy numpy.random.rand() uses the unseeded global state — use default_rng(seed)',
    'src/repro/core/entropy.py:16:8: RL001 default_rng() without a seed is OS-entropy-seeded — pass an explicit seed',
    'src/repro/core/entropy.py:17:8: RL001 default_rng() without a seed is OS-entropy-seeded — pass an explicit seed',
    'src/repro/core/handlers.py:4:4: RL002 bare except swallows PowerLossError — re-raise, or catch Exception instead',
    'src/repro/core/handlers.py:10:4: RL002 PowerLossError handler outside the recovery driver — run the operation under SystemConfig.run_recovering instead',
    "src/repro/core/keys.py:4:11: RL005 np.linspace over 'key_space' yields float64 — integer keys past 2^53 lose precision; use integer arithmetic (key_space * i // n)",
    "src/repro/core/keys.py:7:11: RL005 true division on 'lpn' produces float64 — use // to keep key/lpn/offset arithmetic exact",
    'src/repro/core/order.py:2:31: RL009 as_completed: results in worker completion order — collect them in submission order',
    'src/repro/core/order.py:5:11: RL004 os.listdir(): host filesystem access below the store layer',
    'src/repro/core/order.py:8:15: RL009 as_completed: results in worker completion order — collect them in submission order',
    'src/repro/core/suppressed.py:7:0: RL100 unused suppression: disable=RL001 suppresses nothing on this line — remove it',
    'src/repro/core/suppressed.py:10:0: RL100 unused suppression: disable=all suppresses nothing on this line — remove it',
    'src/repro/engine/hostio.py:7:9: RL004 open(): storage below the engine goes through FlashDevice / the file stores',
    'src/repro/engine/hostio.py:9:4: RL004 os.unlink(): host filesystem access below the store layer',
    'src/repro/engine/hostio.py:10:4: RL004 numpy save(): host file I/O below the store layer',
    'src/repro/engine/hostio.py:11:4: RL004 shutil.rmtree(): host filesystem access below the store layer',
    'src/repro/flash/example.py:2:4: RL006 FlashDevice.peek() touches flash state but never charges the SimClock',
    'src/repro/flash/example.py:5:0: RL006 helper() drives raw device primitives but never charges the SimClock',
    'src/repro/flash/example.py:9:4: RL003 raise RuntimeError: flash-stack errors must be FlashError subclasses (or TypeError/ValueError for argument validation)',
    'tests/test_example.py:7:4: RL002 bare except swallows PowerLossError — re-raise, or catch Exception instead',
]


def corpus() -> dict[str, str]:
    return {path: textwrap.dedent(src).lstrip("\n")
            for path, src in CORPUS.items()}


def test_lint_sources_output_is_pinned():
    found = lint_sources(corpus())
    assert [v.render() for v in found] == EXPECTED


def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    for path, src in corpus().items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
    monkeypatch.chdir(tmp_path)
    assert main(["src", "tests"]) == 1
    assert capsys.readouterr().out.splitlines() == EXPECTED
