import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
# the workloads pin their own solver limits and backend
for key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[key]
