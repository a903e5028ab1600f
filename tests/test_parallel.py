import sys

from gecxform import _parallel
from gecxform._parallel import ENV_THREADS, _pool_size, map_ordered


def test_pool_size_is_capped_by_threads_items_and_cpus(monkeypatch):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setenv(ENV_THREADS, "64")
    assert _pool_size(1000) == 2
    assert _pool_size(1) == 1
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 16)
    assert _pool_size(1000) == 16
    assert _pool_size(5) == 5
    monkeypatch.setenv(ENV_THREADS, "3")
    assert _pool_size(1000) == 3
    monkeypatch.delenv(ENV_THREADS)
    assert _pool_size(1000) == 1
    # os.cpu_count() may not know the count
    monkeypatch.setenv(ENV_THREADS, "8")
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _pool_size(1000) == 1


def test_serial_map_does_not_load_multiprocessing(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    for name in [n for n in sys.modules if n == "multiprocessing" or n.startswith("multiprocessing.")]:
        monkeypatch.delitem(sys.modules, name)
    assert map_ordered(abs, [-1, 2, -3]) == [1, 2, 3]
    assert "multiprocessing" not in sys.modules
