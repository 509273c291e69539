"""API-hygiene negatives.  Pure AST fixture — parsed, never imported.

Expected findings: one ``bare-except``, two ``mutable-default``, two
``unclosed-resource``.
"""

import socket


def swallow(fn):
    try:
        return fn()
    except:  # finding: also catches KeyboardInterrupt/SystemExit
        return None


def accumulate(item, bucket=[]):  # finding: default shared across calls
    bucket.append(item)
    return bucket


def tag(item, labels={}):  # finding: default shared across calls
    return {**labels, "item": item}


def leak_file(path):
    fh = open(path, "rb")  # finding: never closed, never handed off
    return fh.read()


def leak_socket(host, port):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # finding: leaks
    sock.connect((host, port))
    return True
