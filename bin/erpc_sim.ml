let () = Erpc_cli.main ()
