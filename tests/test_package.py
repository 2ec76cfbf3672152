import os
import subprocess
import sys

import heegaard


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(heegaard.__file__))
    code = "import sys, heegaard; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))
