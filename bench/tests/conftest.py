import sys
from pathlib import Path

# the benchmark drives the library from this checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
