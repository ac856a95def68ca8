import sys

from benchmarks.e2e.run import main

sys.exit(main())
