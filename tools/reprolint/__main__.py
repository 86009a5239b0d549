from tools.reprolint.cli import main

raise SystemExit(main())
