"""Each kernel mutation moves a tier-1 case of the record.

As ``repro.fuzz.planted`` plants release-path bugs, this plants kernel
bugs, patching the source as a fresh interpreter imports it (nothing in
``src/`` knows), and reruns ``golden.TIER1`` there until a case moves.
No model event has two callbacks, so reversing one event's list is
invisible to every run; one instant's ready lane runs in reverse here.
"""

import json
import os
import subprocess
import sys

import pytest

from tests import golden

#: Mutation → {kernel module: [(source, mutated source), ...]}.
MUTATIONS = {
    "eid tie-break inverted": {"core": [(
        "heappush(self._queue, (at, NORMAL, eid, event))",
        "heappush(self._queue, (at, NORMAL, -eid, event))")]},
    "one instant's callbacks run in reverse": {"core": [(
        "elif ready:\n                    event = ready.popleft()",
        "elif ready:\n                    event = ready.pop()")]},
    "a cancelled getter at a store's head still takes the item": {
        "resources": [(
            "if not get_event._cancelled:\n                get_event.deliver",
            "if True:\n                get_event.deliver")]},
    "a deadline fires after its get was satisfied": {
        "core": [("if event is not None and event._value is PENDING:",
                  "if event is not None:")],
        "events": [("                    record._event = None\n",
                    "                    pass\n")]},
}

CHILD = """
import importlib.machinery as machinery, json, sys
patches = json.loads(sys.argv[1])

class Planted(machinery.SourceFileLoader):
    def get_code(self, fullname):
        source = self.get_data(self.path).decode()
        for old, new in patches[fullname]:
            assert source.count(old) == 1, (fullname, old)
            source = source.replace(old, new)
        return compile(source, self.path, "exec")

class Finder(machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name not in patches:
            return None
        spec = machinery.PathFinder.find_spec(name, path, target)
        spec.loader = Planted(name, spec.origin)
        return spec

sys.meta_path.insert(0, Finder)
from tests import golden
print(golden.first_moved(golden.TIER1))
"""


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_the_tier1_record_catches_a_kernel_mutation(mutation):
    patches = {f"repro.simkernel.{module}": edits
               for module, edits in MUTATIONS[mutation].items()}
    root = golden.ROOT
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(patches)], cwd=root,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"no tier-1 case moved: {mutation}"
