import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# the repository root, for the benchmark package ``perfbench``
sys.path.insert(1, str(Path(__file__).parent.parent))
